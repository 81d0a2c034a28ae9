package core

import (
	"sort"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
)

// Hooks receives detection lifecycle callbacks from the pipeline. All
// callbacks run synchronously on the ingestion goroutine at bin boundaries
// (the only points where outage state changes), so implementations must not
// block: a hook that stalls stalls bin closes and therefore record
// ingestion. Nil fields are skipped. Hooks must be installed via SetHooks
// before the first Process call.
type Hooks struct {
	// OutageOpened fires when a PoP gains an open outage — including an
	// oscillation reopen, which carries Merged > 0.
	OutageOpened func(OutageStatus)
	// OutageUpdated fires when a later bin's signals extend an already-open
	// outage.
	OutageUpdated func(OutageStatus)
	// OutageResolved fires exactly when a completed Outage becomes
	// drainable from Process/Flush: after restoration plus the oscillation
	// window, or at stream flush. The set of resolved outages equals the
	// batch output for the same stream.
	OutageResolved func(Outage)
	// IncidentClassified fires for every classified signal group
	// (link/AS/operator/PoP), in the order Incidents() records them.
	IncidentClassified func(Incident)
	// BinClosed fires at the end of every non-idle bin close, after all
	// outage and incident callbacks of that bin. The engine's state
	// accessors (OpenOutageStatuses, Incidents, Stats) are safe to call
	// from inside the callback; servers use it to refresh read snapshots.
	BinClosed func(end time.Time)
	// ProbeRequested fires when a signal group is parked pending a probe
	// campaign (SetProber mode only).
	ProbeRequested func(PendingConfirmation)
	// ProbeConfirmed fires when a campaign verdict resolves a pending
	// confirmation — promoted to a located outage (Located), suppressed as
	// a data-plane-contradicted false positive, or resolved unlocated. It
	// fires before the OutageOpened/OutageUpdated callback of a promotion.
	ProbeConfirmed func(ProbeOutcome)
	// ProbeExpired fires when a pending confirmation outlives its TTL
	// without a verdict and is dropped.
	ProbeExpired func(ProbeOutcome)
	// FeedDegraded fires — only with Config.FeedSilence set — when a
	// collector or peer session crosses the silence threshold at a bin
	// close, before that bin's BinClosed callback. Transitions are ordered
	// by (scope, collector, peer), a pure function of the record stream.
	FeedDegraded func(bgpstream.FeedTransition)
	// FeedRecovered fires when a previously degraded feed is seen again,
	// under the same ordering and determinism contract as FeedDegraded.
	FeedRecovered func(bgpstream.FeedTransition)
	// TraceRecorded fires — only with Config.Tracing enabled — immediately
	// after the OutageResolved callback of the same outage, carrying the
	// evidence chain behind it: trace i always describes resolved outage i.
	// An outage whose in-flight evidence was lost (e.g. a checkpoint
	// restore mid-outage) still yields a trace, with the chapters it
	// accumulated since.
	TraceRecorded func(OutageTrace)
}

// OutageStatus is a point-in-time snapshot of one open (ongoing) outage,
// safe to retain: all slices are copies.
type OutageStatus struct {
	// PoP is the outage epicenter.
	PoP colo.PoP
	// SignalPoPs are the PoPs whose signals were attributed to this
	// epicenter, sorted by (kind, id).
	SignalPoPs []colo.PoP
	// Start is when the outage began (bin preceding the first signal).
	Start time.Time
	// LastSignal is the most recent bin that raised a signal for it.
	LastSignal time.Time
	// Confirmed reports data-plane corroboration so far.
	Confirmed bool
	// AffectedASes observed across the outage's signals, sorted.
	AffectedASes []bgp.ASN
	// WaitingPaths is the number of diverted paths not yet returned.
	WaitingPaths int
	// ReturnedPaths is the number of diverted paths back on baseline.
	ReturnedPaths int
	// Merged counts oscillation segments folded into this incident.
	Merged int
}

// status snapshots the open outage. Callers hold the bin barrier (or run
// single-threaded), so the maps are stable.
func (o *openOutage) status() OutageStatus {
	sigs := make([]colo.PoP, 0, len(o.signalPops))
	for pop := range o.signalPops {
		sigs = append(sigs, pop)
	}
	sort.Slice(sigs, func(i, j int) bool {
		if sigs[i].Kind != sigs[j].Kind {
			return sigs[i].Kind < sigs[j].Kind
		}
		return sigs[i].ID < sigs[j].ID
	})
	affected := make([]bgp.ASN, 0, len(o.affected))
	for a := range o.affected {
		affected = append(affected, a)
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	return OutageStatus{
		PoP:           o.epicenter,
		SignalPoPs:    sigs,
		Start:         o.start,
		LastSignal:    o.lastSignal,
		Confirmed:     o.confirmed,
		AffectedASes:  affected,
		WaitingPaths:  len(o.waiting),
		ReturnedPaths: len(o.returned),
		Merged:        o.merged,
	}
}

// openStatuses snapshots every open outage, sorted by epicenter.
func (t *outageTracker) openStatuses() []OutageStatus {
	out := make([]OutageStatus, 0, len(t.opened))
	for _, o := range t.opened {
		out = append(out, o.status())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PoP.Kind != out[j].PoP.Kind {
			return out[i].PoP.Kind < out[j].PoP.Kind
		}
		return out[i].PoP.ID < out[j].PoP.ID
	})
	return out
}

// emit moves a completed outage into the drainable set and fires the
// resolution hook: the single point through which every finished Outage
// passes, so hook subscribers observe exactly the batch output. With
// tracing enabled the outage's accumulated evidence follows right behind
// it — every resolution is paired with exactly one trace (a stub when the
// evidence was lost across a checkpoint restore), keeping the resolved
// index aligned with the trace index.
func (inv *investigator) emit(o Outage, tr *OutageTrace) {
	inv.completed = append(inv.completed, o)
	if inv.hooks.OutageResolved != nil {
		inv.hooks.OutageResolved(o)
	}
	if inv.cfg.Tracing && inv.hooks.TraceRecorded != nil {
		if tr == nil {
			tr = &OutageTrace{Version: TraceVersion}
		}
		tr.PoP = o.PoP
		tr.Start = o.Start
		tr.End = o.End
		tr.Merged = o.Merged
		inv.hooks.TraceRecorded(*tr)
	}
}
