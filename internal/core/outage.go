package core

import (
	"sort"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
)

// openOutage tracks one ongoing PoP outage.
type openOutage struct {
	epicenter  colo.PoP
	signalPops map[colo.PoP]bool // PoPs whose return indicates restoration
	start      time.Time
	lastSignal time.Time
	waiting    map[PathKey]bool // diverted paths not yet returned
	returned   map[PathKey]bool
	lastReturn time.Time
	affected   map[bgp.ASN]bool
	confirmed  bool
	dpChecked  bool
	merged     int
	// trace accumulates the provenance evidence chain (Config.Tracing);
	// nil when tracing is disabled or no chapter has been recorded yet.
	trace *OutageTrace
}

// outageTracker maintains open outages, restoration detection and
// oscillation merging (Section 4.4: two outages of one PoP separated by
// less than 12 hours form a single incident).
type outageTracker struct {
	cfg     Config
	opened  map[colo.PoP]*openOutage
	cooling []Outage // closed, awaiting the oscillation window
	// coolingTraces parallels cooling index-for-index: the accumulated
	// trace rides beside its finalized Outage through the oscillation
	// window (Outage itself is a serialized value type and cannot carry
	// it). Entries are nil with tracing disabled or after a checkpoint
	// restore. Every cooling mutation must keep the two aligned.
	coolingTraces []*OutageTrace
}

func newOutageTracker(cfg Config) *outageTracker {
	return &outageTracker{cfg: cfg, opened: make(map[colo.PoP]*openOutage)}
}

// observe feeds a PoP-level signal group attributed to an epicenter.
func (t *outageTracker) observe(at time.Time, epicenter colo.PoP, g *popGroup, confirmed, checked bool) {
	o := t.opened[epicenter]
	if o == nil {
		// Oscillation: a recently closed outage of the same PoP reopens
		// as the same incident.
		for i := len(t.cooling) - 1; i >= 0; i-- {
			c := t.cooling[i]
			if c.PoP == epicenter && at.Sub(c.End) < t.cfg.OscillationGap {
				o = &openOutage{
					epicenter:  epicenter,
					signalPops: map[colo.PoP]bool{},
					start:      c.Start,
					waiting:    map[PathKey]bool{},
					returned:   map[PathKey]bool{},
					affected:   map[bgp.ASN]bool{},
					confirmed:  c.Confirmed,
					dpChecked:  c.DataPlaneChecked,
					merged:     c.Merged + 1,
				}
				for _, a := range c.AffectedASes {
					o.affected[a] = true
				}
				// The oscillation segments form one incident: the merged
				// trace keeps accumulating where the closed segment stopped.
				o.trace = t.coolingTraces[i]
				t.cooling = append(t.cooling[:i], t.cooling[i+1:]...)
				t.coolingTraces = append(t.coolingTraces[:i], t.coolingTraces[i+1:]...)
				break
			}
		}
	}
	if o == nil {
		o = &openOutage{
			epicenter:  epicenter,
			signalPops: map[colo.PoP]bool{},
			start:      at.Add(-t.cfg.BinInterval), // signal raised at bin end; outage began within the bin
			waiting:    map[PathKey]bool{},
			returned:   map[PathKey]bool{},
			affected:   map[bgp.ASN]bool{},
		}
		t.opened[epicenter] = o
	} else {
		t.opened[epicenter] = o
	}
	o.lastSignal = at
	o.signalPops[g.pop] = true
	o.confirmed = o.confirmed || confirmed
	o.dpChecked = o.dpChecked || checked
	for _, s := range g.signals {
		for _, r := range s.diverted {
			if !o.returned[r.key] {
				o.waiting[r.key] = true
			}
			if r.ends.near != 0 {
				o.affected[r.ends.near] = true
			}
			if r.ends.far != 0 {
				o.affected[r.ends.far] = true
			}
		}
	}
}

// applyReturns reconciles the shards' reported path returns into the
// authoritative waiting/returned sets. It runs at every bin barrier before
// signal investigation, so the tracker observes exactly the returns the
// sequential detector's inline walk would have recorded mid-bin; lastReturn
// takes the max because the reports of concurrent shards arrive unordered
// while the record stream itself is time-ordered.
func (t *outageTracker) applyReturns(evs []returnEvent) {
	for _, ev := range evs {
		o := t.opened[ev.epicenter]
		if o == nil || !o.waiting[ev.key] {
			continue
		}
		delete(o.waiting, ev.key)
		o.returned[ev.key] = true
		if ev.at.After(o.lastReturn) {
			o.lastReturn = ev.at
		}
	}
}

// watches appends one restoration watch per open outage with paths still
// waiting, in epicenter order. A watch points at the outage's own waiting
// and signalPops maps: the shards only read them, and the tracker mutates
// them only at bin barriers, while the shards are paused.
func (t *outageTracker) watches(out []shardWatch) []shardWatch {
	for _, pop := range t.open() {
		if o := t.opened[pop]; len(o.waiting) > 0 {
			out = append(out, shardWatch{epicenter: pop, signalPops: o.signalPops, waiting: o.waiting})
		}
	}
	return out
}

// idle reports whether the tracker has neither open nor cooling outages —
// a bin close with no diverts is then a no-op.
func (t *outageTracker) idle() bool { return len(t.opened) == 0 && len(t.cooling) == 0 }

// tick runs at every bin boundary: closes restored outages and emits
// closed outages whose oscillation window has passed.
func (t *outageTracker) tick(now time.Time, inv *investigator) {
	var closed []colo.PoP
	for pop, o := range t.opened {
		total := len(o.waiting) + len(o.returned)
		if total == 0 {
			continue
		}
		if float64(len(o.returned))/float64(total) > t.cfg.RestoreFraction {
			closed = append(closed, pop)
		}
	}
	sort.Slice(closed, func(i, j int) bool {
		if closed[i].Kind != closed[j].Kind {
			return closed[i].Kind < closed[j].Kind
		}
		return closed[i].ID < closed[j].ID
	})
	for _, pop := range closed {
		o := t.opened[pop]
		end := o.lastReturn
		if end.IsZero() {
			end = now
		}
		t.cooling = append(t.cooling, t.finalize(o, end))
		t.coolingTraces = append(t.coolingTraces, o.trace)
		delete(t.opened, pop)
	}

	// Emit cooled-off outages.
	var keep []Outage
	var keepTraces []*OutageTrace
	for i, c := range t.cooling {
		if now.Sub(c.End) >= t.cfg.OscillationGap {
			inv.emit(c, t.coolingTraces[i])
		} else {
			keep = append(keep, c)
			keepTraces = append(keepTraces, t.coolingTraces[i])
		}
	}
	t.cooling = keep
	t.coolingTraces = keepTraces
}

// drainCooling emits every closed outage regardless of the oscillation
// window (stream end).
func (t *outageTracker) drainCooling(inv *investigator) {
	for i, c := range t.cooling {
		inv.emit(c, t.coolingTraces[i])
	}
	t.cooling = nil
	t.coolingTraces = nil
}

// closeAll force-closes everything at stream end.
func (t *outageTracker) closeAll(asOf time.Time) {
	pops := make([]colo.PoP, 0, len(t.opened))
	for pop := range t.opened {
		pops = append(pops, pop)
	}
	sort.Slice(pops, func(i, j int) bool {
		if pops[i].Kind != pops[j].Kind {
			return pops[i].Kind < pops[j].Kind
		}
		return pops[i].ID < pops[j].ID
	})
	for _, pop := range pops {
		o := t.opened[pop]
		// Prefer the last observed path return as the restoration instant;
		// an outage with no returns ends, as far as we can tell, at the
		// stream horizon.
		end := o.lastReturn
		if end.IsZero() {
			end = asOf
		}
		if end.Before(o.lastSignal) {
			end = o.lastSignal
		}
		t.cooling = append(t.cooling, t.finalize(o, end))
		t.coolingTraces = append(t.coolingTraces, o.trace)
		delete(t.opened, pop)
	}
}

func (t *outageTracker) finalize(o *openOutage, end time.Time) Outage {
	affected := make([]bgp.ASN, 0, len(o.affected))
	for a := range o.affected {
		affected = append(affected, a)
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	// Deterministic representative: order by (Kind, ID) — a bare ID
	// comparison ties between PoPs of different kinds sharing an ID and
	// would leave the choice to map iteration order.
	var sigPop colo.PoP
	for pop := range o.signalPops {
		if !sigPop.IsValid() || pop.Kind < sigPop.Kind ||
			(pop.Kind == sigPop.Kind && pop.ID < sigPop.ID) {
			sigPop = pop
		}
	}
	return Outage{
		PoP:              o.epicenter,
		SignalPoP:        sigPop,
		Start:            o.start,
		End:              end,
		Confirmed:        o.confirmed,
		DataPlaneChecked: o.dpChecked,
		AffectedASes:     affected,
		DivertedPaths:    len(o.waiting) + len(o.returned),
		Merged:           o.merged,
	}
}

// open returns the epicenters of currently open outages.
func (t *outageTracker) open() []colo.PoP {
	out := make([]colo.PoP, 0, len(t.opened))
	for pop := range t.opened {
		out = append(out, pop)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].ID < out[j].ID
	})
	return out
}
