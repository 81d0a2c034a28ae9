package core

import (
	"sort"
	"time"

	"kepler/internal/as2org"
	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/metrics"
)

// stateView gives the investigator read access to the per-path layer's
// cross-path aggregates: the engine's shards (one inline, or N workers'),
// read in place. It is only consulted during a bin close, while every
// shard is paused, and nothing is merged or copied: a PathKey lives in
// exactly one shard, so a per-shard sum is the count over the whole
// baseline, and every caller folds the visited entries without depending on
// their order.
type stateView []*pathShard

// stableCount returns the number of stable paths at pop whose near end is
// near.
func (v stateView) stableCount(pop colo.PoP, near bgp.ASN) int {
	n := 0
	for _, s := range v {
		n += len(s.stable[pop][near])
	}
	return n
}

// stableTotal returns the number of stable paths at pop.
func (v stateView) stableTotal(pop colo.PoP) int {
	n := 0
	for _, s := range v {
		for _, set := range s.stable[pop] {
			n += len(set)
		}
	}
	return n
}

// eachStable calls fn for every stable path at pop, in no defined order.
func (v stateView) eachStable(pop colo.PoP, fn func(ends popEnd)) {
	for _, s := range v {
		for _, set := range s.stable[pop] {
			for _, ends := range set {
				fn(ends)
			}
		}
	}
}

// pathsContaining returns the number of monitored paths whose AS path
// traverses a.
func (v stateView) pathsContaining(a bgp.ASN) int {
	n := 0
	for _, s := range v {
		n += s.pathsContaining[a]
	}
	return n
}

// investigator owns the cross-path layer of the pipeline: bin-boundary
// threshold evaluation, Section 4.3 signal investigation, and outage
// duration tracking. It runs strictly at bin boundaries, which is what
// lets the per-path layer shard freely: all global reads happen while the
// shards are synchronized.
type investigator struct {
	cfg   Config
	cmap  *colo.Map
	orgs  *as2org.Table
	dp    DataPlane
	view  stateView
	hooks Hooks

	// prober, when set, replaces the synchronous dp with deferred probe
	// campaigns; pending holds the parked signal groups awaiting verdicts.
	prober   Prober
	pending  map[uint64]*pendingConfirmation
	probeSeq uint64

	incidents []Incident
	tracker   *outageTracker
	completed []Outage

	// feed, when set (Config.FeedSilence), is the stream-time liveness
	// watchdog; its transitions fire at bin closes, right before BinClosed.
	// It is observed on the ingestion goroutine and evaluated only at
	// barriers, so it needs no locking.
	feed *bgpstream.FeedWatchdog

	// binStage, when set, receives the staged wall-clock spans of every
	// non-idle bin close (SetBinStageStats). Purely observational: timing
	// never influences detection.
	binStage *metrics.BinStageStats
	// engineBarrier/engineMerge carry the spans the Engine measured before
	// entering closeBinOver (barrier wait, divert merge); on the inline
	// engine the barrier is its own promotions. Consumed and reset by the
	// next closeBinOver.
	engineBarrier time.Duration
	engineMerge   time.Duration
}

func newInvestigator(cfg Config, cmap *colo.Map, orgs *as2org.Table, view stateView) *investigator {
	return &investigator{
		cfg:     cfg,
		cmap:    cmap,
		orgs:    orgs,
		view:    view,
		pending: make(map[uint64]*pendingConfirmation),
		tracker: newOutageTracker(cfg),
	}
}

func (inv *investigator) drainCompleted() []Outage {
	out := inv.completed
	inv.completed = nil
	return out
}

// signal is one (pop, nearAS) outage signal raised at a bin boundary.
type signal struct {
	pop      colo.PoP
	near     bgp.ASN
	diverted []divertRec
	stable   int
}

// runBin evaluates the per-AS divergence thresholds for the bin ending at
// binEnd and classifies any resulting signals (the signal-raising half of
// closeBinOver). diverted is the bin's merged divert
// index; callers tick the outage tracker and clean the stable baseline
// afterwards.
func (inv *investigator) runBin(binEnd time.Time, diverted map[colo.PoP]map[bgp.ASN][]divertRec) {
	if len(diverted) == 0 {
		return
	}

	var signals []signal
	pops := make([]colo.PoP, 0, len(diverted))
	for pop := range diverted {
		pops = append(pops, pop)
	}
	sort.Slice(pops, func(i, j int) bool {
		if pops[i].Kind != pops[j].Kind {
			return pops[i].Kind < pops[j].Kind
		}
		return pops[i].ID < pops[j].ID
	})
	for _, pop := range pops {
		nears := make([]bgp.ASN, 0, len(diverted[pop]))
		for near := range diverted[pop] {
			nears = append(nears, near)
		}
		sort.Slice(nears, func(i, j int) bool { return nears[i] < nears[j] })

		if inv.cfg.DisablePerASGrouping {
			// Ablation mode: one aggregate fraction per PoP. A partial
			// outage hitting regional ASes drowns under a big AS's
			// unaffected paths — the bias the paper's grouping removes.
			divertedTotal := 0
			for _, near := range nears {
				divertedTotal += len(diverted[pop][near])
			}
			total := inv.view.stableTotal(pop)
			if total == 0 || float64(divertedTotal)/float64(total) <= inv.cfg.Tfail {
				continue
			}
			for _, near := range nears {
				recs := diverted[pop][near]
				signals = append(signals, signal{pop: pop, near: near, diverted: recs, stable: inv.view.stableCount(pop, near)})
			}
			continue
		}

		for _, near := range nears {
			recs := diverted[pop][near]
			stableCount := inv.view.stableCount(pop, near) // still includes diverted ones
			if stableCount == 0 {
				continue
			}
			frac := float64(len(recs)) / float64(stableCount)
			if frac > inv.cfg.Tfail {
				signals = append(signals, signal{pop: pop, near: near, diverted: recs, stable: stableCount})
			}
		}
	}

	if len(signals) > 0 {
		inv.investigate(binEnd, signals)
	}
}

// closeBinOver is the canonical bin-close sequence of every engine:
// reconcile path returns, investigate the merged diverts, tick outage
// tracking, point the shards at the restoration watches, then apply the
// shards' end-of-bin baseline cleanup. The caller guarantees exclusive
// access to every shard of inv.view (the inline engine runs on the
// caller's goroutine; a worker engine holds its workers at the bin
// barrier) and has already run promotions due at end. The investigation
// reads the shards' maps in place, so it must finish before finishBin
// edits them; the watches point at the tracker's and the parked campaigns'
// own maps, which may change only while the shards are paused.
func (inv *investigator) closeBinOver(end time.Time, diverted map[colo.PoP]map[bgp.ASN][]divertRec) {
	// Staged timing (SetBinStageStats): each region below is bracketed with
	// a monotonic-clock span. Total also covers the un-bracketed glue
	// (tracker tick, watch distribution), so Total >= the stage sum.
	stage := inv.binStage
	var spans metrics.BinSpans
	var start, t0 time.Time
	if stage != nil {
		spans.End = end
		spans.Stage[metrics.StageBarrier] = inv.engineBarrier
		spans.Stage[metrics.StageMerge] = inv.engineMerge
		start = time.Now() //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
		t0 = start
	}
	inv.engineBarrier, inv.engineMerge = 0, 0
	mark := func(i int) {
		if stage != nil {
			now := time.Now() //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
			spans.Stage[i] += now.Sub(t0)
			t0 = now
		}
	}

	// Returns first, split by watch origin: events routed through a parked
	// campaign's sentinel PoP reconcile onto the pending (so the verdict
	// collection that follows promotes with the parked interval's returns
	// already counted), the rest onto the tracker as before.
	var evs []returnEvent
	for _, s := range inv.view {
		evs = append(evs, s.takeReturns()...)
	}
	if len(inv.pending) > 0 {
		pendEvs := evs[:0:0]
		trackEvs := evs[:0]
		for _, ev := range evs {
			if ev.epicenter.Kind == colo.PoPInvalid {
				pendEvs = append(pendEvs, ev)
			} else {
				trackEvs = append(trackEvs, ev)
			}
		}
		inv.applyPendingReturns(pendEvs)
		evs = trackEvs
	}
	// Probe verdicts: campaigns parked at earlier bin closes promote into
	// (or drop out of) the tracker before this bin's own signals are
	// investigated, so their restoration watches ship with this barrier's.
	inv.collectProbes(end)
	inv.tracker.applyReturns(evs)
	mark(metrics.StageCollect)
	inv.runBin(end, diverted)
	mark(metrics.StageClassify)
	inv.tracker.tick(end, inv)
	inv.pushWatches()
	if stage != nil {
		// The tick/watch glue above stays un-bracketed.
		t0 = time.Now() //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
	}
	for _, s := range inv.view {
		s.finishBin()
	}
	mark(metrics.StageFinish)
	inv.fireFeedTransitions(end)
	if inv.hooks.BinClosed != nil {
		inv.hooks.BinClosed(end)
	}
	mark(metrics.StageHooks)
	if stage != nil {
		spans.Total = spans.Stage[metrics.StageBarrier] + spans.Stage[metrics.StageMerge] + time.Since(start) //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
		stage.Record(spans)
	}
}

// pushWatches hands every shard the same restoration watches: the open
// outages', then the parked campaigns'. A shard reads only the keys it owns;
// the others never re-tag there.
func (inv *investigator) pushWatches() {
	ws := inv.pendingWatches(inv.tracker.watches(nil))
	for _, s := range inv.view {
		s.watches = ws
	}
}

// feedDue reports whether the watchdog has transitions pending at end,
// without committing them. The engine's idle-bin fast path consults it so
// a silence threshold crossing still closes an otherwise no-op bin.
func (inv *investigator) feedDue(end time.Time) bool {
	return inv.feed != nil && inv.feed.Due(end)
}

// fireFeedTransitions evaluates and emits the bin's feed-health edges. It
// runs only from closeBinOver (the bin-barrier hook site), keeping every
// hook invocation inside the barrier contract.
func (inv *investigator) fireFeedTransitions(end time.Time) {
	if inv.feed == nil {
		return
	}
	for _, tr := range inv.feed.Evaluate(end) {
		if tr.Degraded {
			if inv.hooks.FeedDegraded != nil {
				inv.hooks.FeedDegraded(tr)
			}
		} else if inv.hooks.FeedRecovered != nil {
			inv.hooks.FeedRecovered(tr)
		}
	}
}
