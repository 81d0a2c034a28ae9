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

// investigator owns the cross-path layer of the pipeline: bin-boundary
// threshold evaluation, Section 4.3 signal investigation, and outage
// duration tracking. It runs strictly at bin boundaries: all of its reads
// across paths happen there.
type investigator struct {
	cfg   Config
	cmap  *colo.Map
	orgs  *as2org.Table
	ps    *pathShard
	hooks Hooks

	// prober, when set, validates and localizes epicenters with deferred
	// probe campaigns; pending holds the parked signal groups awaiting
	// verdicts.
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
	// promoteSpan carries the span the Engine measured before entering
	// closeBinOver: the promotions due at the bin's end. Consumed and reset
	// by the next closeBinOver.
	promoteSpan time.Duration
}

func newInvestigator(cfg Config, cmap *colo.Map, orgs *as2org.Table, ps *pathShard) *investigator {
	return &investigator{
		cfg:     cfg,
		cmap:    cmap,
		orgs:    orgs,
		ps:      ps,
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
// closeBinOver) over the shard's divert index; callers tick the outage
// tracker and clean the stable baseline afterwards.
func (inv *investigator) runBin(binEnd time.Time) {
	diverted := inv.ps.diverted
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
			total := inv.ps.stableTotal(pop)
			if total == 0 || float64(divertedTotal)/float64(total) <= inv.cfg.Tfail {
				continue
			}
			for _, near := range nears {
				recs := diverted[pop][near]
				signals = append(signals, signal{pop: pop, near: near, diverted: recs, stable: len(inv.ps.stable[pop][near])})
			}
			continue
		}

		for _, near := range nears {
			recs := diverted[pop][near]
			stableCount := len(inv.ps.stable[pop][near]) // still includes diverted ones
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

// closeBinOver is the canonical bin-close sequence: reconcile path returns,
// investigate the bin's diverts, tick outage tracking, point the shard at
// the restoration watches, then apply the shard's end-of-bin baseline
// cleanup. The caller has already run the promotions due at end. The
// investigation reads the shard's maps in place, so it must finish before
// finishBin edits them; the watches point at the tracker's and the parked
// campaigns' own maps, which change only inside a bin close.
func (inv *investigator) closeBinOver(end time.Time) {
	// Staged timing (SetBinStageStats): each region below is bracketed with
	// a monotonic-clock span. Total also covers the un-bracketed glue
	// (tracker tick, watch distribution), so Total >= the stage sum.
	stage := inv.binStage
	var spans metrics.BinSpans
	var start, t0 time.Time
	if stage != nil {
		spans.End = end
		spans.Stage[metrics.StageBarrier] = inv.promoteSpan
		start = time.Now() //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
		t0 = start
	}
	inv.promoteSpan = 0
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
	evs := inv.ps.takeReturns()
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
	inv.runBin(end)
	mark(metrics.StageClassify)
	inv.tracker.tick(end, inv)
	inv.pushWatches()
	if stage != nil {
		// The tick/watch glue above stays un-bracketed.
		t0 = time.Now() //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
	}
	inv.ps.finishBin()
	mark(metrics.StageFinish)
	inv.fireFeedTransitions(end)
	if inv.hooks.BinClosed != nil {
		inv.hooks.BinClosed(end)
	}
	mark(metrics.StageHooks)
	if stage != nil {
		spans.Total = spans.Stage[metrics.StageBarrier] + time.Since(start) //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
		stage.Record(spans)
	}
}

// pushWatches hands the shard the restoration watches: the open outages',
// then the parked campaigns'.
func (inv *investigator) pushWatches() {
	inv.ps.watches = inv.pendingWatches(inv.tracker.watches(nil))
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
