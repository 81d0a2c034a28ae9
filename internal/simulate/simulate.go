// Package simulate drives outage scenarios over a generated world: it
// schedules ground-truth incidents (facility, IXP, link and AS outages with
// realistic duration distributions), renders the resulting BGP dynamics
// into MRT archives by recomputing routes around each transition, and
// exposes the failure state at any instant for data-plane and traffic
// queries. The rendered archives are what Kepler's pipeline consumes in
// every experiment; nothing downstream ever sees the ground truth except
// the validation harness.
package simulate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"net/netip"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/mrt"
	"kepler/internal/reports"
	"kepler/internal/routing"
	"kepler/internal/topology"
)

// EventKind classifies a ground-truth incident.
type EventKind uint8

// Event kinds.
const (
	EvFacility EventKind = iota // colocation facility outage
	EvIXP                       // IXP switching-fabric outage
	EvLink                      // single interconnect (de-peering, maintenance)
	EvAS                        // whole-AS incident (membership termination etc.)
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvFacility:
		return "facility"
	case EvIXP:
		return "ixp"
	case EvLink:
		return "link"
	case EvAS:
		return "as"
	default:
		return "unknown"
	}
}

// Event is one scheduled incident.
type Event struct {
	ID       int
	Kind     EventKind
	Facility colo.FacilityID
	IXP      colo.IXPID
	Link     int
	AS       bgp.ASN
	Start    time.Time
	Duration time.Duration
	// Partial, in (0,1), fails only that fraction of the PoP's dependent
	// links (a partial outage); 0 means full outage.
	Partial float64

	// partialLinks is resolved at render time and reused on restore.
	partialLinks []int
}

// End returns the restoration instant.
func (e *Event) End() time.Time { return e.Start.Add(e.Duration) }

// PoP returns the infrastructure PoP of the event (invalid for link/AS).
func (e *Event) PoP() colo.PoP {
	switch e.Kind {
	case EvFacility:
		return colo.FacilityPoP(e.Facility)
	case EvIXP:
		return colo.IXPPoP(e.IXP)
	default:
		return colo.PoP{}
	}
}

// ScheduleConfig parameterizes incident generation.
type ScheduleConfig struct {
	Seed  int64
	Start time.Time
	End   time.Time

	FacilityOutages int
	IXPOutages      int
	LinkOutages     int
	ASOutages       int

	// PartialFraction of infrastructure outages are partial.
	PartialFraction float64
	// MinMembers restricts failed facilities/IXPs to populated ones.
	MinMembers int
}

// GenerateSchedule draws a deterministic incident schedule. Durations
// follow the paper's Figure 8b shape: a short-incident mode with a median
// near 15 minutes and a heavy mode above one hour (~40% of incidents), with
// IXP outages skewed longer than facility outages (software and
// configuration failures take longer to resolve than power restoration).
func GenerateSchedule(w *topology.World, cfg ScheduleConfig) []Event {
	rng := rand.New(rand.NewSource(cfg.Seed))
	span := cfg.End.Sub(cfg.Start)
	var events []Event
	id := 0

	randTime := func() time.Time {
		return cfg.Start.Add(time.Duration(rng.Int63n(int64(span))))
	}

	var facPool []colo.FacilityID
	for _, f := range w.Map.Facilities() {
		if len(f.Members) >= cfg.MinMembers {
			facPool = append(facPool, f.ID)
		}
	}
	var ixPool []colo.IXPID
	for _, ix := range w.Map.IXPs() {
		if len(ix.Members) >= cfg.MinMembers {
			ixPool = append(ixPool, ix.ID)
		}
	}

	duration := func(ixp bool) time.Duration {
		// Mixture: 60% short incidents, 40% long ones.
		var minutes float64
		if rng.Float64() < 0.6 {
			median := 12.0
			if ixp {
				median = 18.0
			}
			minutes = median * math.Exp(rng.NormFloat64()*0.7)
		} else {
			median := 100.0
			if ixp {
				median = 160.0
			}
			minutes = median * math.Exp(rng.NormFloat64()*0.8)
		}
		if minutes < 2 {
			minutes = 2
		}
		if minutes > 48*60 {
			minutes = 48 * 60
		}
		return time.Duration(minutes * float64(time.Minute))
	}

	for i := 0; i < cfg.FacilityOutages && len(facPool) > 0; i++ {
		e := Event{
			ID: id, Kind: EvFacility,
			Facility: facPool[rng.Intn(len(facPool))],
			Start:    randTime(), Duration: duration(false),
		}
		if rng.Float64() < cfg.PartialFraction {
			e.Partial = 0.3 + rng.Float64()*0.4
		}
		events = append(events, e)
		id++
	}
	for i := 0; i < cfg.IXPOutages && len(ixPool) > 0; i++ {
		e := Event{
			ID: id, Kind: EvIXP,
			IXP:   ixPool[rng.Intn(len(ixPool))],
			Start: randTime(), Duration: duration(true),
		}
		if rng.Float64() < cfg.PartialFraction {
			e.Partial = 0.3 + rng.Float64()*0.4
		}
		events = append(events, e)
		id++
	}
	for i := 0; i < cfg.LinkOutages && len(w.Links) > 0; i++ {
		events = append(events, Event{
			ID: id, Kind: EvLink,
			Link:  rng.Intn(len(w.Links)),
			Start: randTime(), Duration: duration(false),
		})
		id++
	}
	for i := 0; i < cfg.ASOutages && len(w.ASes) > 0; i++ {
		events = append(events, Event{
			ID: id, Kind: EvAS,
			AS:    w.ASes[rng.Intn(len(w.ASes))].ASN,
			Start: randTime(), Duration: duration(false),
		})
		id++
	}
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Start.Equal(events[j].Start) {
			return events[i].Start.Before(events[j].Start)
		}
		return events[i].ID < events[j].ID
	})
	return events
}

// TruthEvents converts the schedule into the validation harness's format.
func TruthEvents(w *topology.World, events []Event) []reports.Event {
	var out []reports.Event
	for _, e := range events {
		pop := e.PoP()
		if !pop.IsValid() {
			continue
		}
		cityID := w.Map.CityOf(pop)
		city, country := "", ""
		if c, ok := w.Geo.City(cityID); ok {
			city, country = c.Name, c.Country
		}
		out = append(out, reports.Event{
			ID: e.ID, Time: e.Start, Duration: e.Duration,
			PoP: pop, Name: w.PoPName(pop),
			City: city, Country: country,
			Full: e.Partial == 0,
		})
	}
	return out
}

// dependentLinks returns the link IDs whose availability depends on the
// event's target.
func dependentLinks(w *topology.World, e *Event) []int {
	var out []int
	switch e.Kind {
	case EvFacility:
		for _, l := range w.Links {
			if l.Facility == e.Facility || l.AFac == e.Facility || l.BFac == e.Facility {
				out = append(out, l.ID)
			}
		}
	case EvIXP:
		for _, l := range w.Links {
			if l.IXP == e.IXP {
				out = append(out, l.ID)
			}
		}
	case EvLink:
		out = append(out, e.Link)
	case EvAS:
		for _, l := range w.LinksOf(e.AS) {
			out = append(out, l.ID)
		}
	}
	return out
}

// transition is one mask change instant.
type transition struct {
	at    time.Time
	ev    *Event
	begin bool // true: failure starts; false: restoration
}

// RenderConfig tunes archive rendering.
type RenderConfig struct {
	Seed int64
	// Ctx, when non-nil, lets callers abort a render in flight: Render
	// checks it before each transition and each per-origin route
	// recomputation (the CPU-heavy inner loop) and returns the context
	// error. The live soak source depends on this for prompt daemon
	// shutdown — a 7-day window can take long enough to render that
	// checking only between windows leaves SIGTERM hanging.
	Ctx context.Context
	// RIBDumpInterval inserts full RIB snapshots periodically (0: only an
	// initial dump at scenario start).
	RIBDumpInterval time.Duration
	// SessionResets injects this many collector session bounces as feed
	// noise.
	SessionResets int
	// StickyFraction of per-vantage route changes at *restoration*
	// transitions are never announced: the vantage keeps its post-outage
	// path, modelling BGP's newest-path tie-breaking and manual pinning
	// (the paper observes ~5% of paths never return, Section 6.3).
	StickyFraction float64
}

// Result is a rendered scenario.
type Result struct {
	World   *topology.World
	Engine  *routing.Engine
	Records []*mrt.Record
	Truth   []reports.Event

	start       time.Time
	end         time.Time
	transitions []transition
}

// MaskAt reconstructs the failure state at an instant.
func (r *Result) MaskAt(at time.Time) *routing.Mask {
	mask := routing.NewMask()
	for _, tr := range r.transitions {
		if tr.at.After(at) {
			break
		}
		applyTransition(mask, tr)
	}
	return mask
}

func applyTransition(mask *routing.Mask, tr transition) {
	e := tr.ev
	if e.Partial > 0 && (e.Kind == EvFacility || e.Kind == EvIXP) {
		for _, id := range e.partialLinks {
			if tr.begin {
				mask.FailLink(id)
			} else {
				mask.RestoreLink(id)
			}
		}
		return
	}
	switch e.Kind {
	case EvFacility:
		if tr.begin {
			mask.FailFacility(e.Facility)
		} else {
			mask.RestoreFacility(e.Facility)
		}
	case EvIXP:
		if tr.begin {
			mask.FailIXP(e.IXP)
		} else {
			mask.RestoreIXP(e.IXP)
		}
	case EvLink:
		if tr.begin {
			mask.FailLink(e.Link)
		} else {
			mask.RestoreLink(e.Link)
		}
	case EvAS:
		if tr.begin {
			mask.FailAS(e.AS)
		} else {
			mask.RestoreAS(e.AS)
		}
	}
}

// Render replays the schedule and produces the multi-collector archive.
//
// Every RIB dump, the initial one and each periodic one of
// RIBDumpInterval, is emitted from the baseline (all-healthy) tables: the
// dumps are rendered before the transitions are replayed, so a dump that
// lands inside an outage re-announces the healthy paths, not the ones in
// use at that instant.
func Render(w *topology.World, events []Event, start, end time.Time, rc RenderConfig) (*Result, error) {
	if end.Before(start) {
		return nil, fmt.Errorf("simulate: end before start")
	}
	aborted := func() error {
		if rc.Ctx != nil {
			return rc.Ctx.Err()
		}
		return nil
	}
	if err := aborted(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.Seed))
	eng := routing.New(w)

	// Vantage -> collectors carrying it.
	collectorsOf := make(map[bgp.ASN][]string)
	var vantages []bgp.ASN
	for _, c := range w.Collectors {
		for _, p := range c.Peers {
			if len(collectorsOf[p]) == 0 {
				vantages = append(vantages, p)
			}
			collectorsOf[p] = append(collectorsOf[p], c.Name)
		}
	}
	sort.Slice(vantages, func(i, j int) bool { return vantages[i] < vantages[j] })

	res := &Result{World: w, Engine: eng, start: start, end: end}
	res.Truth = TruthEvents(w, events)

	// Resolve partial outages and build the transition list.
	evs := make([]Event, len(events))
	copy(evs, events)
	for i := range evs {
		e := &evs[i]
		if e.Partial > 0 && (e.Kind == EvFacility || e.Kind == EvIXP) {
			deps := dependentLinks(w, e)
			n := int(float64(len(deps)) * e.Partial)
			if n < 1 && len(deps) > 0 {
				n = 1
			}
			idx := rng.Perm(len(deps))[:n]
			sort.Ints(idx)
			for _, j := range idx {
				e.partialLinks = append(e.partialLinks, deps[j])
			}
		}
		if e.Start.Before(start) || !e.End().Before(end) {
			return nil, fmt.Errorf("simulate: event %d outside scenario window", e.ID)
		}
		res.transitions = append(res.transitions,
			transition{at: e.Start, ev: e, begin: true},
			transition{at: e.End(), ev: e, begin: false},
		)
	}
	sort.Slice(res.transitions, func(i, j int) bool {
		ti, tj := res.transitions[i], res.transitions[j]
		if !ti.at.Equal(tj.at) {
			return ti.at.Before(tj.at)
		}
		if ti.ev.ID != tj.ev.ID {
			return ti.ev.ID < tj.ev.ID
		}
		return !ti.begin && tj.begin
	})

	// Baseline state.
	baseline := eng.ComputeAll(nil)
	current := make(map[bgp.ASN]*routing.Table, len(baseline.Tables))
	for o, t := range baseline.Tables {
		current[o] = t
	}

	// Initial RIB dump (and periodic redumps). Tables are immutable, so a
	// (table, vantage) route is built once however many dumps emit it.
	type routeKey struct {
		t *routing.Table
		v bgp.ASN
	}
	routes := make(map[routeKey]*routing.Route)
	dumpAt := func(at time.Time) {
		for _, v := range vantages {
			for _, o := range w.ASes {
				k := routeKey{current[o.ASN], v}
				route, ok := routes[k]
				if !ok {
					route, _ = eng.Route(k.t, v)
					routes[k] = route
				}
				res.emitRoute(at, mrt.KindRIB, v, collectorsOf[v], o, route)
			}
		}
	}
	dumpAt(start)
	if rc.RIBDumpInterval > 0 {
		for at := start.Add(rc.RIBDumpInterval); at.Before(end); at = at.Add(rc.RIBDumpInterval) {
			dumpAt(at)
		}
	}

	// Replay transitions.
	mask := routing.NewMask()
	currentRIB := &routing.RIB{Tables: current}
	for _, tr := range res.transitions {
		if err := aborted(); err != nil {
			return nil, err
		}
		touched := make(map[int]bool)
		if tr.ev.Partial > 0 && (tr.ev.Kind == EvFacility || tr.ev.Kind == EvIXP) {
			for _, id := range tr.ev.partialLinks {
				touched[id] = true
			}
		} else {
			for _, id := range dependentLinks(w, tr.ev) {
				touched[id] = true
			}
		}
		// Candidates: origins using touched links now (failure) or in the
		// baseline (restoration may attract routes back).
		cand := map[bgp.ASN]bool{}
		for _, o := range currentRIB.AffectedOrigins(touched) {
			cand[o] = true
		}
		for _, o := range baseline.AffectedOrigins(touched) {
			cand[o] = true
		}
		if tr.ev.Kind == EvAS {
			cand[tr.ev.AS] = true
		}
		origins := make([]bgp.ASN, 0, len(cand))
		for o := range cand {
			origins = append(origins, o)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })

		applyTransition(mask, tr)

		for _, o := range origins {
			if err := aborted(); err != nil {
				return nil, err
			}
			asObj, ok := w.AS(o)
			if !ok {
				continue
			}
			newT := eng.ComputeOrigin(o, mask)
			changes := eng.DiffTables(current[o], newT, vantages)
			current[o] = newT
			for _, ch := range changes {
				if !tr.begin && rc.StickyFraction > 0 && rng.Float64() < rc.StickyFraction {
					// The vantage sticks with its outage-time path: no
					// re-announcement reaches the collectors.
					continue
				}
				jitter := time.Duration(2+rng.Intn(45)) * time.Second
				at := tr.at.Add(jitter)
				if ch.New == nil {
					res.emitWithdraw(at, ch.Vantage, collectorsOf[ch.Vantage], asObj)
				} else {
					res.emitRoute(at, mrt.KindUpdate, ch.Vantage, collectorsOf[ch.Vantage], asObj, ch.New)
				}
			}
		}
	}

	// Collector session noise.
	for i := 0; i < rc.SessionResets && len(vantages) > 0; i++ {
		v := vantages[rng.Intn(len(vantages))]
		at := start.Add(time.Duration(rng.Int63n(int64(end.Sub(start)))))
		down := time.Duration(1+rng.Intn(10)) * time.Minute
		for _, cname := range collectorsOf[v] {
			res.Records = append(res.Records,
				&mrt.Record{Time: at, Kind: mrt.KindState, Collector: cname, PeerAS: v,
					OldState: mrt.StateEstablished, NewState: mrt.StateIdle},
				&mrt.Record{Time: at.Add(down), Kind: mrt.KindState, Collector: cname, PeerAS: v,
					OldState: mrt.StateIdle, NewState: mrt.StateEstablished},
			)
		}
	}

	sort.SliceStable(res.Records, func(i, j int) bool {
		return res.Records[i].Time.Before(res.Records[j].Time)
	})
	return res, nil
}

// emitRoute appends RIB/update records for every prefix of origin o carried
// on vantage v's route, one record per collector; a nil route emits nothing.
func (r *Result) emitRoute(at time.Time, kind mrt.RecordKind, v bgp.ASN, collectors []string, o *topology.AS, route *routing.Route) {
	if route == nil {
		return
	}
	attrs := bgp.Attributes{
		Origin:      bgp.OriginIGP,
		ASPath:      route.Path,
		Communities: route.Communities.Clone(),
	}
	// IPv6 routes only carry the communities of operators that also tag
	// their IPv6 ingresses, which is why IPv6 coverage trails IPv4
	// (Figure 7c).
	var comms6 bgp.Communities
	for _, c := range route.Communities {
		if a, ok := r.World.AS(c.ASN()); ok && a.UsesCommunities && !a.TagsIPv6 {
			continue
		}
		comms6 = append(comms6, c)
	}
	for _, cname := range collectors {
		for _, p := range o.Prefixes {
			u := &bgp.Update{Announced: []netip.Prefix{p}, Attrs: attrs.Clone()}
			u.Attrs.NextHop = v4NextHop(v)
			r.Records = append(r.Records, &mrt.Record{
				Time: at, Kind: kind, Collector: cname, PeerAS: v,
				PeerAddr: v4NextHop(v), Update: u,
			})
		}
		for _, p := range o.Prefixes6 {
			u := &bgp.Update{Announced: []netip.Prefix{p}, Attrs: attrs.Clone()}
			u.Attrs.Communities = comms6.Clone()
			u.Attrs.NextHop = v6NextHop(v)
			r.Records = append(r.Records, &mrt.Record{
				Time: at, Kind: kind, Collector: cname, PeerAS: v,
				PeerAddr: v6NextHop(v), Update: u,
			})
		}
	}
}

// emitWithdraw appends withdrawal records for every prefix of o.
func (r *Result) emitWithdraw(at time.Time, v bgp.ASN, collectors []string, o *topology.AS) {
	for _, cname := range collectors {
		u := &bgp.Update{}
		u.Withdrawn = append(u.Withdrawn, o.Prefixes...)
		u.Withdrawn = append(u.Withdrawn, o.Prefixes6...)
		r.Records = append(r.Records, &mrt.Record{
			Time: at, Kind: mrt.KindUpdate, Collector: cname, PeerAS: v,
			PeerAddr: v4NextHop(v), Update: u,
		})
	}
}
