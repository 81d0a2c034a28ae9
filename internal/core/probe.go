package core

import (
	"sort"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
)

// Prober is the asynchronous data-plane interface (Section 4.3/4.4 under
// the measurement budgets public platforms impose): instead of answering a
// point-in-time Confirm call inline, the investigator submits probe
// campaigns at bin close and collects their verdicts at later bin closes.
// A signal group whose epicenter awaits probing is parked as a pending
// confirmation in the meantime (see PendingConfirmation) so bin closes stay
// fast and deterministic while measurements run concurrently.
//
// Submit and Collect are both called from the ingestion goroutine at bin
// boundaries; implementations run their measurements on their own
// goroutines in between. Collect must return verdicts in ascending
// request-ID order — the investigator's promotion order derives from it.
type Prober interface {
	// Submit schedules a probe campaign. The prober owns execution order,
	// deduplication and budget enforcement.
	Submit(ProbeRequest)
	// Collect returns the verdicts of campaigns that completed, sorted by
	// request ID. binEnd is the closing bin boundary (stream time);
	// deterministic implementations use it to settle measurement budgets.
	Collect(binEnd time.Time) []ProbeVerdict
}

// ProbeRequest is one campaign: the candidate PoPs to measure on behalf of
// a parked signal group.
type ProbeRequest struct {
	// ID is the investigator-assigned pending-confirmation id, unique and
	// ascending within one pipeline.
	ID uint64
	// At is the closing time of the bin that raised the signal; probes
	// query the data plane as of this instant.
	At time.Time
	// SignalPoP is the PoP the signal group was raised at.
	SignalPoP colo.PoP
	// Epicenter is the control-plane inferred epicenter for confirmation
	// campaigns; zero when the campaign disambiguates among Candidates.
	Epicenter colo.PoP
	// Candidates are the PoPs to probe, most specific first.
	Candidates []colo.PoP
}

// ProbeResult is the measured outcome for one candidate target.
type ProbeResult struct {
	Target colo.PoP
	// Confirmed reports that the data plane corroborates an outage at the
	// target. Only meaningful when HasData is set.
	Confirmed bool
	// HasData is false when no measurement was possible (budget exhausted,
	// no baseline pairs, backend loss); the control-plane inference then
	// stands unvalidated, exactly as in the synchronous DataPlane path.
	HasData bool
}

// ProbeVerdict is a completed campaign: one result per requested candidate,
// in request order.
type ProbeVerdict struct {
	ID      uint64
	Results []ProbeResult
}

// PendingConfirmation is a point-in-time snapshot of one parked signal
// group: an outage candidate whose location or existence awaits data-plane
// corroboration. Safe to retain; all slices are copies.
type PendingConfirmation struct {
	// ID is the campaign id, ascending in park order.
	ID uint64
	// At is the closing time of the signalling bin.
	At time.Time
	// Deadline is when the pending expires without a verdict (At + ProbeTTL).
	Deadline time.Time
	// SignalPoP is the PoP the group's signals were raised at.
	SignalPoP colo.PoP
	// Epicenter is the inferred epicenter awaiting confirmation; zero when
	// the campaign disambiguates among Candidates.
	Epicenter colo.PoP
	// Candidates are the probed PoPs.
	Candidates []colo.PoP
	// AffectedASes observed across the parked group's signals, sorted.
	AffectedASes []bgp.ASN
	// Paths is the number of diverted stable paths in the parked group.
	Paths int
}

// ProbeOutcome reports how a pending confirmation resolved.
type ProbeOutcome struct {
	// Pending is the parked state the outcome resolves.
	Pending PendingConfirmation
	// Located is set when the verdict pinned an epicenter and the group was
	// promoted to an (open) outage.
	Located bool
	// Epicenter is the promoted epicenter; valid only when Located.
	Epicenter colo.PoP
	// Confirmed reports data-plane corroboration of the promoted epicenter.
	Confirmed bool
	// Checked reports whether any measurement data was available at all.
	Checked bool
	// Expired is set when the pending outlived its TTL without a verdict.
	Expired bool
}

// defaultProbeTTL bounds how long a pending confirmation waits for its
// verdict when Config.ProbeTTL is unset.
const defaultProbeTTL = 10 * time.Minute

// pendingConfirmation is the investigator's parked state for one campaign.
type pendingConfirmation struct {
	id         uint64
	at         time.Time
	deadline   time.Time
	epicenter  colo.PoP // valid: confirmation; zero: disambiguation
	candidates []colo.PoP
	signalPop  colo.PoP
	// recs are detached copies of the group's divert records (key and ends
	// only): enough to rebuild the tracker-facing group at promotion time
	// without retaining shard-owned memory across bins.
	recs []divertRec
	// affected and paths are the snapshot aggregates, computed once at
	// park: they are immutable afterwards and status() runs on the barrier
	// path for every parked campaign.
	affected []bgp.ASN
	paths    int
	// waiting/returned mirror the outage tracker's restoration bookkeeping
	// for the parked interval: provisional shard watches (keyed by
	// pendingWatchPoP) record path returns that happen while the verdict is
	// outstanding, and promotion transfers them onto the opened outage — a
	// return in the parked bin must count exactly as it would have had the
	// synchronous path opened the outage at the signal bin.
	waiting    map[PathKey]bool
	returned   map[PathKey]bool
	lastReturn time.Time
	// chapter is the group's provenance chapter, parked alongside it
	// (Config.Tracing); the campaign verdict is recorded onto it and the
	// chapter follows the group into the outage on promotion.
	chapter *TraceChapter
}

// pendingWatchPoP encodes a parked campaign id as its shard-watch routing
// key: the epicenter is not known yet, so returns are routed through an
// invalid-kind PoP carrying the campaign id and reconciled onto the
// pending at the next barrier. Campaign counts sit far below 2^32 in any
// real deployment, so the uint32 narrowing cannot collide in practice.
func pendingWatchPoP(id uint64) colo.PoP {
	return colo.PoP{Kind: colo.PoPInvalid, ID: uint32(id)}
}

// snapPending parks a group: divert records are copied down to the fields
// the outage tracker reads (path key and link ends), dropping old paths and
// sequence numbers so no shard-owned slices outlive the bin barrier.
func snapPending(id uint64, at, deadline time.Time, epicenter colo.PoP, cands []colo.PoP, g *popGroup) *pendingConfirmation {
	p := &pendingConfirmation{
		id:         id,
		at:         at,
		deadline:   deadline,
		epicenter:  epicenter,
		candidates: append([]colo.PoP(nil), cands...),
		signalPop:  g.pop,
		affected:   g.affectedASes(),
		paths:      g.paths,
		waiting:    make(map[PathKey]bool, g.paths),
		returned:   make(map[PathKey]bool),
		chapter:    g.trace,
	}
	for _, s := range g.signals {
		for _, r := range s.diverted {
			p.recs = append(p.recs, divertRec{key: r.key, ends: r.ends})
			p.waiting[r.key] = true
		}
	}
	return p
}

// rebuildGroup reconstitutes a tracker-facing group from the parked
// records. buildGroup recomputes the link/AS aggregates the tracker reads.
func (p *pendingConfirmation) rebuildGroup() *popGroup {
	return buildGroup(p.signalPop, []signal{{pop: p.signalPop, diverted: p.recs}})
}

// status snapshots the pending for hooks and API serving.
func (p *pendingConfirmation) status() PendingConfirmation {
	return PendingConfirmation{
		ID:           p.id,
		At:           p.at,
		Deadline:     p.deadline,
		SignalPoP:    p.signalPop,
		Epicenter:    p.epicenter,
		Candidates:   append([]colo.PoP(nil), p.candidates...),
		AffectedASes: append([]bgp.ASN(nil), p.affected...),
		Paths:        p.paths,
	}
}

// park suspends a signal group until its probe campaign returns. epicenter
// is the inferred epicenter for confirmation campaigns and zero for
// disambiguation campaigns (candidates then carry the probe set).
func (inv *investigator) park(at time.Time, epicenter colo.PoP, cands []colo.PoP, g *popGroup) {
	ttl := inv.cfg.ProbeTTL
	if ttl <= 0 {
		ttl = defaultProbeTTL
	}
	inv.probeSeq++
	p := snapPending(inv.probeSeq, at, at.Add(ttl), epicenter, cands, g)
	inv.pending[p.id] = p
	inv.prober.Submit(ProbeRequest{
		ID:         p.id,
		At:         at,
		SignalPoP:  g.pop,
		Epicenter:  epicenter,
		Candidates: append([]colo.PoP(nil), cands...),
	})
	if inv.hooks.ProbeRequested != nil {
		inv.hooks.ProbeRequested(p.status())
	}
}

// hasPending reports whether any confirmation is parked — a bin close must
// then run even if no ops arrived, so verdicts are collected and TTLs
// enforced.
func (inv *investigator) hasPending() bool { return len(inv.pending) > 0 }

// pendingIDs returns the parked campaign ids in ascending order.
func (inv *investigator) pendingIDs() []uint64 {
	ids := make([]uint64, 0, len(inv.pending))
	for id := range inv.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// pendingStatuses snapshots every parked confirmation, ascending by id.
func (inv *investigator) pendingStatuses() []PendingConfirmation {
	out := make([]PendingConfirmation, 0, len(inv.pending))
	for _, id := range inv.pendingIDs() {
		out = append(out, inv.pending[id].status())
	}
	return out
}

// applyPendingReturns reconciles returns reported against provisional
// pending watches (routed by pendingWatchPoP). Runs at every bin barrier
// before verdicts are collected, so a promotion observes the returns of
// the parked interval.
func (inv *investigator) applyPendingReturns(evs []returnEvent) {
	for _, ev := range evs {
		p := inv.pending[uint64(ev.epicenter.ID)]
		if p == nil || !p.waiting[ev.key] {
			continue
		}
		delete(p.waiting, ev.key)
		p.returned[ev.key] = true
		if ev.at.After(p.lastReturn) {
			p.lastReturn = ev.at
		}
	}
}

// pendingWatchSets partitions every parked campaign's waiting set across n
// shards, mirroring outageTracker.watchSets: the per-path layer detects
// returns for parked groups exactly as it does for open outages, it just
// routes them through the campaign's sentinel PoP.
func (inv *investigator) pendingWatchSets(n int, shardOf func(PathKey) int) [][]shardWatch {
	out := make([][]shardWatch, n)
	if len(inv.pending) == 0 {
		return out
	}
	for _, id := range inv.pendingIDs() {
		p := inv.pending[id]
		sigs := map[colo.PoP]bool{p.signalPop: true}
		per := make([]map[PathKey]bool, n)
		for key := range p.waiting {
			i := 0
			if shardOf != nil {
				i = shardOf(key)
			}
			if per[i] == nil {
				per[i] = make(map[PathKey]bool)
			}
			per[i][key] = true
		}
		for i := range per {
			if per[i] != nil {
				out[i] = append(out[i], shardWatch{epicenter: pendingWatchPoP(id), signalPops: sigs, waiting: per[i]})
			}
		}
	}
	return out
}

// collectProbes runs at the top of every bin close: completed campaign
// verdicts promote (or discard) their parked groups, then overdue pendings
// expire. Verdicts arrive sorted by campaign id, and expiry walks ids in
// order, so the tracker observes a deterministic sequence.
func (inv *investigator) collectProbes(end time.Time) {
	if inv.prober == nil {
		return
	}
	for _, v := range inv.prober.Collect(end) {
		p := inv.pending[v.ID]
		if p == nil {
			continue // expired earlier, or stale after recovery
		}
		delete(inv.pending, v.ID)
		inv.resolvePending(p, v)
	}
	for _, id := range inv.pendingIDs() {
		p := inv.pending[id]
		if p.deadline.After(end) {
			continue
		}
		delete(inv.pending, id)
		if inv.hooks.ProbeExpired != nil {
			inv.hooks.ProbeExpired(ProbeOutcome{Pending: p.status(), Expired: true})
		}
	}
}

// resultFor extracts the verdict entry for one target.
func resultFor(v ProbeVerdict, target colo.PoP) ProbeResult {
	for _, r := range v.Results {
		if r.Target == target {
			return r
		}
	}
	return ProbeResult{Target: target}
}

// selectConfirmed mirrors the synchronous probeCandidates selection: the
// most specific granularity with exactly one confirmed candidate wins; two
// confirmed candidates of one granularity stay ambiguous.
func selectConfirmed(v ProbeVerdict) colo.PoP {
	confirmed := map[colo.PoPKind][]colo.PoP{}
	for _, r := range v.Results {
		if r.HasData && r.Confirmed {
			confirmed[r.Target.Kind] = append(confirmed[r.Target.Kind], r.Target)
		}
	}
	for _, kind := range []colo.PoPKind{colo.PoPFacility, colo.PoPIXP, colo.PoPCity} {
		switch len(confirmed[kind]) {
		case 0:
			continue
		case 1:
			return confirmed[kind][0]
		default:
			return colo.PoP{}
		}
	}
	return colo.PoP{}
}

// resolvePending applies one campaign verdict: the parked group is promoted
// into the outage tracker at its original signal time, discarded as a
// data-plane-contradicted false positive, or resolved unlocated. The
// decision table is exactly the synchronous openOutageFor/probeCandidates
// logic, shifted one bin later.
func (inv *investigator) resolvePending(p *pendingConfirmation, v ProbeVerdict) {
	out := ProbeOutcome{Pending: p.status()}
	var epicenter colo.PoP
	confirmed, checked := false, false
	if p.epicenter.IsValid() {
		// Confirmation campaign: one target, the inferred epicenter.
		r := resultFor(v, p.epicenter)
		if r.HasData {
			checked = true
			confirmed = r.Confirmed
			if !confirmed {
				// Data plane contradicts the control plane: treat as a
				// false positive and do not open an outage (Section 4.4).
				out.Checked = true
				if inv.hooks.ProbeConfirmed != nil {
					inv.hooks.ProbeConfirmed(out)
				}
				return
			}
		}
		// No data: the inference stands unvalidated, as in the sync path.
		epicenter = p.epicenter
	} else {
		// Disambiguation campaign: pick the unique confirmed candidate.
		epicenter = selectConfirmed(v)
		for _, r := range v.Results {
			if r.HasData {
				out.Checked = true
			}
		}
		if !epicenter.IsValid() {
			// Resolved unlocated: Kepler never reports a location it could
			// not corroborate; the signal stays in the incident log.
			if inv.hooks.ProbeConfirmed != nil {
				inv.hooks.ProbeConfirmed(out)
			}
			return
		}
		confirmed, checked = true, true
		out.Checked = true
	}

	if p.chapter != nil {
		outcome := "promoted"
		if p.epicenter.IsValid() {
			outcome = "confirmed"
			if !checked {
				outcome = "unvalidated"
			}
		}
		tp := &TraceProbe{
			Campaign:   p.id,
			Outcome:    outcome,
			Candidates: append([]colo.PoP(nil), p.candidates...),
			Epicenter:  epicenter,
		}
		for _, r := range v.Results {
			tp.Results = append(tp.Results, TraceProbeResult{Target: r.Target, Confirmed: r.Confirmed, HasData: r.HasData})
		}
		p.chapter.Probe = tp
		p.chapter.Epicenter = epicenter
	}
	g := p.rebuildGroup()
	existed := inv.tracker.opened[epicenter] != nil
	inv.tracker.observe(p.at, epicenter, g, confirmed, checked)
	// Transfer the returns the provisional watches recorded while the
	// verdict was outstanding: the opened outage's restoration state must
	// equal what the synchronous path would have accumulated by now.
	if o := inv.tracker.opened[epicenter]; o != nil {
		for key := range p.returned {
			if o.waiting[key] {
				delete(o.waiting, key)
				o.returned[key] = true
			}
		}
		if p.lastReturn.After(o.lastReturn) {
			o.lastReturn = p.lastReturn
		}
		inv.traceAppend(o, p.chapter)
	}
	out.Located = true
	out.Epicenter = epicenter
	out.Confirmed = confirmed
	out.Checked = out.Checked || checked
	if inv.hooks.ProbeConfirmed != nil {
		inv.hooks.ProbeConfirmed(out)
	}
	if o := inv.tracker.opened[epicenter]; o != nil {
		switch {
		case !existed && inv.hooks.OutageOpened != nil:
			inv.hooks.OutageOpened(o.status())
		case existed && inv.hooks.OutageUpdated != nil:
			inv.hooks.OutageUpdated(o.status())
		}
	}
}

// finishProbes settles the probe layer at stream flush: one final collect
// promotes campaigns submitted in the last bin (a deterministic prober
// completes them by then), and whatever is still unresolved expires — an
// aborted daemon re-parks it on recovery replay instead.
func (inv *investigator) finishProbes(asOf time.Time) {
	if inv.prober == nil {
		return
	}
	inv.collectProbes(asOf.Add(inv.cfg.BinInterval))
	for _, id := range inv.pendingIDs() {
		p := inv.pending[id]
		delete(inv.pending, id)
		if inv.hooks.ProbeExpired != nil {
			inv.hooks.ProbeExpired(ProbeOutcome{Pending: p.status(), Expired: true})
		}
	}
}

// resolveByProbe is the shared tail of the disambiguation fallbacks: it
// records the candidate set on the group and reports the epicenter
// unresolved. Probing itself happens later, outside classification — which
// keeps classifyGroup pure: with a synchronous data plane, investigate
// probes the recorded candidates inline during its serial merge (in
// deterministic group order, fixing the dp.Confirm sequence); with an
// asynchronous prober, openOutageFor parks the group as a disambiguation
// campaign over them.
func (inv *investigator) resolveByProbe(_ time.Time, g *popGroup, cands []colo.PoP) colo.PoP {
	if g.trace != nil {
		g.trace.step(TraceStep{Stage: "probe-fallback",
			Candidates: append([]colo.PoP(nil), cands...),
			Outcome:    "control plane could not converge: deferred to targeted data-plane probes"})
	}
	g.probeCands = cands
	return colo.PoP{}
}
