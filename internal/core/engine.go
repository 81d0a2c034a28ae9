package core

import (
	"fmt"
	"sync"
	"time"

	"kepler/internal/as2org"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
)

// binClock reproduces the pipeline's bin advancement: it yields every bin
// end strictly before t's bin, in order, fast-forwarding across idle gaps.
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

// Engine is the Kepler pipeline: a fan-out stage turns each record into
// path-level route ops, which one path-state shard applies on the caller's
// goroutine (the per-path monitoring of Section 4.2), and at every 60 s bin
// close the investigator reads the shard's divert records and stable
// baseline in place to run the Section 4.3 signal investigation. New builds
// it closing every bin; NewEngine builds it skipping provably idle bins. For
// any record stream both emit exactly the same Outages, Incidents and
// checkpoints.
type Engine struct {
	cfg   Config
	inv   *investigator
	ps    *pathShard
	fan   *bgpstream.Fanout
	clock binClock
	ckpt  checkpointer

	// skipIdle makes a bin close with no ops applied since the last one, no
	// outage tracked, no campaign parked and no feed transition due return
	// at once: such a close is a provable no-op. New leaves it off, which
	// keeps it the reference NewEngine is checked against.
	skipIdle bool
	// opsSinceBarrier marks mid-bin per-path state: it gates the idle-bin
	// skip and Checkpoint outside a bin close.
	opsSinceBarrier bool
	stats           metrics.IngestStats

	// seen counts records fed to Process over the pipeline's whole life
	// (seeded by RestoreFrom); inProcess marks that a Process call is on
	// the stack, so a checkpoint taken from inside a BinClosed hook knows
	// the in-flight record's effects are not yet included. inBarrier scopes
	// the bin close in which a Checkpoint may be taken with ops applied
	// since the previous one.
	seen      uint64
	inProcess bool
	inBarrier bool

	// lifecycle serializes Flush against Close so a daemon's shutdown path
	// can race the two safely. Process remains single-goroutine and must
	// happen-before any Flush or Close.
	lifecycle sync.Mutex
	closed    bool
}

// New builds the reference engine: it starts no goroutine, applies each
// record's ops on the caller's goroutine and closes every bin, idle ones
// included. orgs may be nil (operator-level classification then degrades to
// AS-level). The data plane is optional via SetProber.
func New(cfg Config, dict *communities.Dictionary, cmap *colo.Map, orgs *as2org.Table) *Engine {
	e := &Engine{
		cfg:   cfg,
		ps:    newPathShard(cfg, dict, cmap),
		fan:   bgpstream.NewFanout(1),
		clock: binClock{interval: cfg.BinInterval},
	}
	e.inv = newInvestigator(cfg, cmap, orgs, e.ps)
	if cfg.FeedSilence > 0 {
		e.inv.feed = bgpstream.NewFeedWatchdog(cfg.FeedSilence)
	}
	return e
}

// NewEngine builds the engine New builds, except that it skips the close of
// a bin in which nothing was applied, tracked, parked or feed-due. It starts
// no goroutine either. orgs may be nil.
func NewEngine(cfg Config, dict *communities.Dictionary, cmap *colo.Map, orgs *as2org.Table) *Engine {
	e := New(cfg, dict, cmap, orgs)
	e.skipIdle = true
	return e
}

// SetProber wires the data plane: epicenter confirmation and candidate
// disambiguation become deferred probe campaigns whose verdicts are
// collected at a later bin barrier (see Prober and PendingConfirmation).
// It must be called before the first Process.
func (e *Engine) SetProber(p Prober) { e.inv.prober = p }

// PendingConfirmations snapshots the signal groups parked behind probe
// campaigns, ascending by campaign id. Only valid between Process calls or
// inside a BinClosed hook.
func (e *Engine) PendingConfirmations() []PendingConfirmation { return e.inv.pendingStatuses() }

// SetHooks installs lifecycle callbacks (see Hooks). It must be called
// before the first Process.
func (e *Engine) SetHooks(h Hooks) { e.inv.hooks = h }

// SetBinStageStats installs the staged bin-close latency collector: every
// bin close that runs records per-stage wall-clock spans (due promotions,
// divert merge, probe collection, classification, shard finish, hooks) into
// s. Purely observational. It must be called before the first Process.
func (e *Engine) SetBinStageStats(s *metrics.BinStageStats) { e.inv.binStage = s }

// SetCheckpointStats installs the checkpoint-capture counters: how many
// captures ran, how many of them rebuilt the checkpoint image cold, and how
// many path records and stable-baseline entries the last one re-encoded. Purely
// observational. It must be called before the first Checkpoint.
func (e *Engine) SetCheckpointStats(s *metrics.CheckpointStats) { e.ckpt.stats = s }

// Process feeds one record (records must arrive in non-decreasing time
// order) and returns any outages that completed at bin boundaries crossed
// by this record.
func (e *Engine) Process(rec *mrt.Record) []Outage {
	e.stats.Begin()
	e.stats.Records.Add(1)
	e.seen++
	e.inProcess = true
	e.clock.advance(rec.Time, e.closeBin)
	if e.inv.feed != nil {
		// After the bin closes preceding this record: its liveness proof
		// belongs to the bin it falls into.
		e.inv.feed.Observe(rec)
	}
	if n := e.fan.Add(rec); n > 0 {
		e.opsSinceBarrier = true
		e.stats.Ops.Add(int64(n))
		ops := e.fan.Take(0)
		for i := range ops {
			e.ps.apply(&ops[i])
		}
		e.fan.Recycle(0, ops)
	}
	e.inProcess = false
	return e.inv.drainCompleted()
}

// closeBin closes one bin: run the promotions due at end, reconcile path
// returns, run the investigation over the bin's diverts and the stable
// baseline in place, tick outage tracking, point the shard at the
// restoration watches, and drop the diverted paths from the stable
// baseline.
func (e *Engine) closeBin(end time.Time) {
	if e.skipIdle && !e.opsSinceBarrier && e.inv.tracker.idle() && !e.inv.hasPending() && !e.inv.feedDue(end) {
		return // nothing applied, tracked, parked or feed-due: the close is a no-op
	}
	t0 := time.Now() //keplervet:ignore walltime metrics span: bin-close wall-time for IngestStats, never read by detection
	e.ps.runPromotions(end)
	if e.inv.binStage != nil {
		e.inv.promoteSpan = time.Since(t0) //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
	}
	// inBarrier licenses a Checkpoint taken from inside the BinClosed hook.
	e.inBarrier = true
	e.inv.closeBinOver(end)
	e.inBarrier = false

	e.opsSinceBarrier = false
	e.stats.Bins.Add(1)
	e.stats.BarrierNanos.Add(time.Since(t0).Nanoseconds()) //keplervet:ignore walltime metrics span: bin-close wall-time counter, never read by detection
}

// Flush closes the current bin and any open outages as of the given time,
// returning all remaining completed outages. The engine stays usable for
// further records afterwards. Flush is safe to call concurrently with
// Close: after Close it only drains already-completed outages.
func (e *Engine) Flush(asOf time.Time) []Outage {
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	if e.closed {
		// No further bin closes; anything that completed before Close is
		// still drainable.
		return e.inv.drainCompleted()
	}
	e.clock.advance(asOf.Add(e.cfg.BinInterval), e.closeBin)
	e.inv.finishProbes(asOf)
	e.inv.tracker.closeAll(asOf)
	e.inv.tracker.drainCooling(e.inv)
	return e.inv.drainCompleted()
}

// Incidents returns every classified signal so far. Only valid between
// Process calls (the investigator appends at bin boundaries).
func (e *Engine) Incidents() []Incident { return e.inv.incidents }

// OpenOutageStatuses snapshots every ongoing outage, sorted by epicenter.
// Only valid between Process calls or inside a BinClosed hook.
func (e *Engine) OpenOutageStatuses() []OutageStatus { return e.inv.tracker.openStatuses() }

// FeedHealth snapshots the feed watchdog as of asOf (normally the last
// closed bin). ok is false when Config.FeedSilence is zero. Only valid
// between Process calls or inside a BinClosed hook.
func (e *Engine) FeedHealth(asOf time.Time) (snap bgpstream.FeedSnapshot, ok bool) {
	if e.inv.feed == nil {
		return bgpstream.FeedSnapshot{}, false
	}
	return e.inv.feed.Snapshot(asOf), true
}

// Stats snapshots the engine's ingestion counters.
func (e *Engine) Stats() metrics.IngestSnapshot { return e.stats.Snapshot() }

// Checkpoint captures the engine's complete detection state. It is valid
// at bin closes only: call it either from inside a BinClosed hook (the
// investigator's bin is fully closed) or between Process calls while no
// route ops have been applied since the last bin close — any other instant has per-bin divert state in flight that a
// checkpoint does not carry, and is rejected.
//
// The engine keeps the encoded form of the path and stable-baseline
// sections — the checkpoint image — from one capture to the next, so a
// capture costs what changed since the previous one: the first capture
// (also the first after RestoreFrom, and one following a burst that
// outgrew the shard's change lists, such as a RIB dump) encodes the whole
// state and turns change tracking on; an engine that never checkpoints
// tracks nothing. The bytes are those of a from-scratch encoding either
// way. The returned checkpoint shares the image's chunks, which are never
// rewritten, and stays valid while the engine runs on.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	records := e.seen
	if e.inProcess {
		// The in-flight record's ops apply after the bin close: its effects
		// are not part of this checkpoint, so recovery re-reads it.
		records--
	}
	if !e.inBarrier && e.opsSinceBarrier {
		return nil, fmt.Errorf("core: Checkpoint outside a bin barrier with ops in flight; checkpoint from a BinClosed hook")
	}
	// Inside a bin close, or with no ops applied since the last one, the
	// state is the bin-close state, and the clock already stands where the
	// next record resumes it.
	return e.ckpt.capture(e.clock.start, records, e.fan, e.ps, e.inv), nil
}

// RestoreFrom loads a checkpoint produced by Checkpoint (on a reference
// engine or not): the next Process call continues exactly
// where the checkpointed pipeline stopped, so re-ingesting the record
// suffix after Checkpoint.Records reproduces the uninterrupted run's output
// and hook sequence byte for byte. It must be called before the first
// Process, after SetProber when the checkpoint carries pending campaigns
// (they are re-submitted here, without re-firing ProbeRequested hooks).
func (e *Engine) RestoreFrom(c *Checkpoint) error {
	if e.seen != 0 || !e.clock.start.IsZero() {
		return fmt.Errorf("core: RestoreFrom must precede the first Process")
	}
	if err := restoreCheckpoint(c, e.cfg, e.ps, e.inv); err != nil {
		return err
	}
	e.clock.start = c.BinStart
	e.fan.RestoreSeq(c.OpSeq)
	e.seen = c.Records
	return nil
}

// Close ends the engine: a Flush after it only drains outages that already
// completed. Close is idempotent and safe to call concurrently with Flush
// (daemon shutdown paths race the two); Process must not be called
// afterwards.
func (e *Engine) Close() {
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	e.closed = true
}
