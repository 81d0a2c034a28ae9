package core

import (
	"fmt"
	"time"

	"kepler/internal/as2org"
	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
)

// binClock reproduces the pipeline's bin advancement: it yields every bin
// end strictly before t's bin, in order, fast-forwarding across idle gaps.
// Detector and Engine share it so their bin boundaries are identical for
// any record stream.
type binClock struct {
	start    time.Time
	interval time.Duration
}

// advance calls closeBin for each bin that ends at or before t's arrival,
// then leaves start at the bin containing t. start moves before closeBin
// runs — to the closing bin's end, or across an idle gap straight to t's
// bin — so a checkpoint captured inside closeBin records where the clock
// resumes: restored with start still at the closing bin's end, a pipeline
// would close one more bin before it took the jump the original had
// already taken.
func (c *binClock) advance(t time.Time, closeBin func(end time.Time)) {
	if c.start.IsZero() {
		c.start = t.Truncate(c.interval)
		return
	}
	for !t.Before(c.start.Add(c.interval)) {
		end := c.start.Add(c.interval)
		c.start = end
		// Fast-forward across idle gaps.
		if t.Sub(end) > 100*c.interval {
			c.start = t.Truncate(c.interval)
		}
		closeBin(end)
	}
}

// Detector is the sequential Kepler pipeline: one path-state shard driven
// in-process, with the investigator invoked inline at each bin boundary.
// It is the N=1 compatibility path of the sharded Engine and emits
// identical output for any record stream. Records decompose through the
// same single-shard fan-out the Engine uses, consumed synchronously, so
// the two paths cannot drift.
type Detector struct {
	cfg Config
	sh  *pathShard
	inv *investigator

	fan   *bgpstream.Fanout
	clock binClock
	ckpt  checkpointer
	// shards is the one-element slice handed to closeBinOver.
	shards []*pathShard

	// Checkpoint bookkeeping, mirroring Engine: seen counts processed
	// records over the pipeline's life, opsSinceBarrier marks mid-bin
	// per-path state, inBarrier scopes the bin-close window.
	seen            uint64
	inProcess       bool
	inBarrier       bool
	opsSinceBarrier bool
}

// shardView backs the investigator's state view with the single shard's
// maps directly.
type shardView struct{ sh *pathShard }

func (v shardView) stableAt(pop colo.PoP) map[bgp.ASN]map[PathKey]popEnd { return v.sh.stable[pop] }
func (v shardView) pathsContaining(a bgp.ASN) int                        { return v.sh.pathsContaining[a] }

// New builds a detector. orgs may be nil (operator-level classification
// then degrades to AS-level). The data plane is optional via SetDataPlane.
func New(cfg Config, dict *communities.Dictionary, cmap *colo.Map, orgs *as2org.Table) *Detector {
	sh := newPathShard(cfg, dict, cmap)
	d := &Detector{
		cfg:    cfg,
		sh:     sh,
		inv:    newInvestigator(cfg, cmap, orgs, shardView{sh}),
		fan:    bgpstream.NewFanout(1),
		clock:  binClock{interval: cfg.BinInterval},
		shards: []*pathShard{sh},
	}
	if cfg.FeedSilence > 0 {
		d.inv.feed = bgpstream.NewFeedWatchdog(cfg.FeedSilence)
	}
	return d
}

// SetDataPlane wires the synchronous targeted-measurement backend.
func (d *Detector) SetDataPlane(dp DataPlane) { d.inv.dp = dp }

// SetProber wires the asynchronous probe scheduler (see Engine.SetProber).
// Mutually exclusive with SetDataPlane.
func (d *Detector) SetProber(p Prober) { d.inv.prober = p }

// PendingConfirmations snapshots the signal groups parked behind probe
// campaigns, ascending by campaign id.
func (d *Detector) PendingConfirmations() []PendingConfirmation { return d.inv.pendingStatuses() }

// SetHooks installs lifecycle callbacks (see Hooks). It must be called
// before the first Process.
func (d *Detector) SetHooks(h Hooks) { d.inv.hooks = h }

// SetBinStageStats installs the staged bin-close latency collector (see
// Engine.SetBinStageStats). The sequential detector has no barrier or merge
// phase, so those stages stay zero.
func (d *Detector) SetBinStageStats(s *metrics.BinStageStats) { d.inv.binStage = s }

// SetCheckpointStats installs the checkpoint-capture counters (see
// Engine.SetCheckpointStats).
func (d *Detector) SetCheckpointStats(s *metrics.CheckpointStats) { d.ckpt.stats = s }

// Process feeds one record (records must arrive in non-decreasing time
// order, as bgpstream guarantees) and returns any outages that completed.
func (d *Detector) Process(rec *mrt.Record) []Outage {
	// Bin boundary first: close bins that ended before this record.
	// Promotions need no explicit run here: apply promotes up to each
	// op's time, and op-less records leave no observable window before
	// the next op or bin close does it.
	d.seen++
	d.inProcess = true
	d.clock.advance(rec.Time, d.closeBin)
	if d.inv.feed != nil {
		d.inv.feed.Observe(rec)
	}

	if d.fan.Add(rec) > 0 {
		d.opsSinceBarrier = true
		ops := d.fan.Take(0)
		for i := range ops {
			d.sh.apply(&ops[i])
		}
		d.fan.Recycle(0, ops)
	}
	d.inProcess = false
	return d.inv.drainCompleted()
}

// closeBin runs promotions due at the boundary, then the canonical
// bin-close sequence over the single shard.
func (d *Detector) closeBin(end time.Time) {
	d.sh.runPromotions(end)
	d.inBarrier = true
	d.inv.closeBinOver(end, d.shards, d.sh.diverted, nil)
	d.inBarrier = false
	d.opsSinceBarrier = false
}

// Flush closes the current bin and any open outages as of the given time,
// returning all remaining completed outages.
func (d *Detector) Flush(asOf time.Time) []Outage {
	d.clock.advance(asOf.Add(d.cfg.BinInterval), d.closeBin)
	d.inv.finishProbes(asOf)
	d.inv.tracker.closeAll(asOf)
	d.inv.tracker.drainCooling(d.inv)
	return d.inv.drainCompleted()
}

// Checkpoint captures the detector's complete detection state, with
// identical semantics (and identical bytes, for the same record stream) to
// Engine.Checkpoint: valid from inside a BinClosed hook or between Process
// calls while no route ops have applied since the last bin close, and
// incremental over the detector's checkpoint image in the same way.
func (d *Detector) Checkpoint() (*Checkpoint, error) {
	records := d.seen
	if d.inProcess {
		records--
	}
	if !d.inBarrier && d.opsSinceBarrier {
		return nil, fmt.Errorf("core: Checkpoint outside a bin barrier with ops in flight; checkpoint from a BinClosed hook")
	}
	return d.ckpt.capture(d.clock.start, records, d.fan, d.shards, d.inv), nil
}

// RestoreFrom loads a checkpoint produced by any Engine or Detector; see
// Engine.RestoreFrom. It must be called before the first Process.
func (d *Detector) RestoreFrom(c *Checkpoint) error {
	if d.seen != 0 || !d.clock.start.IsZero() {
		return fmt.Errorf("core: RestoreFrom must precede the first Process")
	}
	if err := restoreCheckpoint(c, d.cfg, d.shards, d.inv, nil); err != nil {
		return err
	}
	d.clock.start = c.BinStart
	d.fan.RestoreSeq(c.OpSeq)
	d.fan.Tracker().Restore(c.Sessions)
	d.seen = c.Records
	return nil
}

// Incidents returns every classified signal so far.
func (d *Detector) Incidents() []Incident { return d.inv.incidents }

// OpenOutages returns the PoPs with ongoing outages.
func (d *Detector) OpenOutages() []colo.PoP { return d.inv.tracker.open() }

// OpenOutageStatuses snapshots every ongoing outage, sorted by epicenter.
func (d *Detector) OpenOutageStatuses() []OutageStatus { return d.inv.tracker.openStatuses() }

// FeedHealth snapshots the feed watchdog as of asOf; see Engine.FeedHealth.
func (d *Detector) FeedHealth(asOf time.Time) (snap bgpstream.FeedSnapshot, ok bool) {
	if d.inv.feed == nil {
		return bgpstream.FeedSnapshot{}, false
	}
	return d.inv.feed.Snapshot(asOf), true
}
