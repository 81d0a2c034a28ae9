package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"kepler/internal/as2org"
	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
)

// engineBatchSize is how many route ops accumulate per shard before a
// batch is shipped to its worker; barriers flush partial batches.
const engineBatchSize = 256

// engineQueueLen is the per-shard channel depth, in batches.
const engineQueueLen = 64

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

// shardMsg is one unit on a shard worker's queue: an op batch, optionally
// followed by a bin barrier.
type shardMsg struct {
	ops     []bgpstream.RouteOp
	barrier *binBarrier
}

// binBarrier synchronizes all shards at a bin boundary: each worker runs
// its due promotions, reports ready, and blocks until the investigator —
// which owns shard state outright while they are paused — releases it.
type binBarrier struct {
	end    time.Time
	ready  sync.WaitGroup
	resume chan struct{}
}

// engineShard couples a path-state shard with its worker goroutine. free
// carries fully consumed op slabs back to the dispatcher for reuse, so
// steady-state batching stops allocating a fresh slice per batch.
type engineShard struct {
	ps   *pathShard
	in   chan shardMsg
	free chan []bgpstream.RouteOp
	done chan struct{}
}

func (s *engineShard) run() {
	defer close(s.done)
	for msg := range s.in {
		for i := range msg.ops {
			s.ps.apply(&msg.ops[i])
		}
		if msg.ops != nil {
			// Hand the consumed slab back without ever blocking; a full
			// free queue just lets this one go to the GC.
			select {
			case s.free <- msg.ops[:0]:
			default:
			}
		}
		if b := msg.barrier; b != nil {
			s.ps.runPromotions(b.end)
			b.ready.Done()
			<-b.resume
		}
	}
}

// Engine is the Kepler pipeline: a fan-out stage routes each record's
// path-level ops to the path-state shards, which own disjoint hash
// partitions of the per-path monitoring state (Section 4.2), and at every
// 60 s bin close the investigator merges the shards' divert records and
// reads their stable baselines in place to run the Section 4.3 signal
// investigation. New builds it with one inline shard that applies ops on
// the caller's goroutine and closes every bin; NewEngine builds it with N
// shard workers synchronized at a bin barrier, which skips provably idle
// bins. For any record stream both emit exactly the same Outages, Incidents
// and checkpoints.
type Engine struct {
	cfg Config
	inv *investigator
	// shards holds the shard workers; it is empty on an inline engine.
	shards []*engineShard
	// shardStates holds every path-state shard (the workers', or the one
	// inline shard): the investigator's view and the checkpoint's shard
	// list.
	shardStates []*pathShard
	fan         *bgpstream.Fanout
	clock       binClock
	ckpt        checkpointer

	// opsSinceBarrier marks mid-bin per-path state: it lets a worker
	// engine's idle bins skip the barrier handshake (with no ops dispatched
	// and no outage state in flight, a bin close is a provable no-op) and
	// gates Checkpoint outside a barrier.
	opsSinceBarrier bool
	stats           metrics.IngestStats

	// seen counts records fed to Process over the pipeline's whole life
	// (seeded by RestoreFrom); inProcess marks that a Process call is on
	// the stack, so a checkpoint taken from inside a BinClosed hook knows
	// the in-flight record's effects are not yet included. inBarrier scopes
	// the bin-barrier window in which shard state may be read directly.
	seen      uint64
	inProcess bool
	inBarrier bool

	// lifecycle serializes Flush against Close so a daemon's shutdown path
	// can race the two safely; closeOnce makes Close idempotent. Process
	// remains single-goroutine and must happen-before any Flush or Close.
	lifecycle sync.Mutex
	closeOnce sync.Once
	closed    bool
}

// New builds an engine with one inline path-state shard: it starts no
// goroutine, applies each record's ops on the caller's goroutine and closes
// every bin, idle ones included, which keeps it the reference the worker
// engine is checked against. orgs may be nil (operator-level classification
// then degrades to AS-level). The data plane is optional via SetDataPlane.
func New(cfg Config, dict *communities.Dictionary, cmap *colo.Map, orgs *as2org.Table) *Engine {
	return newEngine(cfg, dict, cmap, orgs, 0)
}

// NewEngine builds an engine with the given number of shard workers;
// shards <= 0 selects GOMAXPROCS. orgs may be nil. Call Close when done to
// stop the workers.
func NewEngine(cfg Config, dict *communities.Dictionary, cmap *colo.Map, orgs *as2org.Table, shards int) *Engine {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	e := newEngine(cfg, dict, cmap, orgs, shards)
	for _, s := range e.shards {
		go s.run()
	}
	return e
}

// newEngine builds an engine over the given number of shard workers, not
// yet started; zero workers leaves one inline shard.
func newEngine(cfg Config, dict *communities.Dictionary, cmap *colo.Map, orgs *as2org.Table, workers int) *Engine {
	e := &Engine{
		cfg:         cfg,
		shards:      make([]*engineShard, workers),
		shardStates: make([]*pathShard, max(workers, 1)),
		fan:         bgpstream.NewFanout(max(workers, 1)),
		clock:       binClock{interval: cfg.BinInterval},
	}
	for i := range e.shardStates {
		e.shardStates[i] = newPathShard(cfg, dict, cmap)
	}
	for i := range e.shards {
		e.shards[i] = &engineShard{
			ps:   e.shardStates[i],
			in:   make(chan shardMsg, engineQueueLen),
			free: make(chan []bgpstream.RouteOp, engineQueueLen+1),
			done: make(chan struct{}),
		}
	}
	e.inv = newInvestigator(cfg, cmap, orgs, e.shardStates)
	if cfg.FeedSilence > 0 {
		e.inv.feed = bgpstream.NewFeedWatchdog(cfg.FeedSilence)
	}
	return e
}

// SetDataPlane wires the synchronous targeted-measurement backend. It must
// be called before the first Process.
func (e *Engine) SetDataPlane(dp DataPlane) { e.inv.dp = dp }

// SetProber wires the asynchronous probe scheduler: epicenter confirmation
// becomes a deferred campaign whose verdict is collected at a later bin
// barrier (see Prober and PendingConfirmation). Mutually exclusive with
// SetDataPlane; it must be called before the first Process.
func (e *Engine) SetProber(p Prober) { e.inv.prober = p }

// PendingConfirmations snapshots the signal groups parked behind probe
// campaigns, ascending by campaign id. Only valid between Process calls or
// inside a BinClosed hook.
func (e *Engine) PendingConfirmations() []PendingConfirmation { return e.inv.pendingStatuses() }

// SetHooks installs lifecycle callbacks (see Hooks). It must be called
// before the first Process.
func (e *Engine) SetHooks(h Hooks) { e.inv.hooks = h }

// SetBinStageStats installs the staged bin-close latency collector: every
// non-idle bin close records per-stage wall-clock spans (barrier wait,
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
		if len(e.shards) == 0 {
			ops := e.fan.Take(0)
			for i := range ops {
				e.shardStates[0].apply(&ops[i])
			}
			e.fan.Recycle(0, ops)
		}
	}
	for i := range e.shards {
		if e.fan.Pending(i) >= engineBatchSize {
			s := e.shards[i]
			s.in <- shardMsg{ops: e.fan.Take(i)}
			e.reclaim(i)
		}
	}
	e.inProcess = false
	return e.inv.drainCompleted()
}

// reclaim recycles one consumed op slab (if a worker has returned any) into
// shard i's fan-out accumulation buffer.
func (e *Engine) reclaim(i int) {
	select {
	case buf := <-e.shards[i].free:
		e.fan.Recycle(i, buf)
	default:
	}
}

// closeBin executes the barrier protocol for one bin boundary: flush
// pending ops, pause every shard after its due promotions, reconcile path
// returns, run the investigation over the merged diverts and the shards'
// stable baselines in place, tick outage tracking, point the shards at the
// restoration watches, and release them (which then drop their diverted
// paths from the stable baseline).
func (e *Engine) closeBin(end time.Time) {
	if len(e.shards) > 0 && !e.opsSinceBarrier && e.inv.tracker.idle() && !e.inv.hasPending() && !e.inv.feedDue(end) {
		return // nothing processed, tracked, parked or feed-due: the close is a no-op
	}
	t0 := time.Now() //keplervet:ignore walltime metrics span: barrier wall-time for IngestStats, never read by detection
	b := e.pause(end)

	// Shards are paused: the investigator owns their state until resume.
	// inBarrier additionally licenses a Checkpoint taken from inside the
	// BinClosed hook to read shard state directly.
	e.inBarrier = true
	var diverted map[colo.PoP]map[bgp.ASN][]divertRec
	if e.inv.binStage != nil {
		e.inv.engineBarrier = time.Since(t0) //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
		tm := time.Now()                     //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
		diverted = e.mergeDiverted()
		e.inv.engineMerge = time.Since(tm) //keplervet:ignore walltime metrics span: staged bin-close histogram stamp
	} else {
		diverted = e.mergeDiverted()
	}
	e.inv.closeBinOver(end, diverted)
	e.inBarrier = false
	e.resume(b)

	e.opsSinceBarrier = false
	e.stats.Bins.Add(1)
	e.stats.BarrierNanos.Add(time.Since(t0).Nanoseconds()) //keplervet:ignore walltime metrics span: barrier wall-time counter, never read by detection
}

// pause ships every shard worker its pending ops followed by a barrier at
// end, and waits until each has applied them, run its promotions due at end
// and stopped. The caller owns all shard state until it calls resume(b).
// An inline engine has applied its ops already and runs its promotions
// here; its barrier is nil.
func (e *Engine) pause(end time.Time) *binBarrier {
	if len(e.shards) == 0 {
		e.shardStates[0].runPromotions(end)
		return nil
	}
	b := &binBarrier{end: end, resume: make(chan struct{})}
	b.ready.Add(len(e.shards))
	for i, s := range e.shards {
		s.in <- shardMsg{ops: e.fan.Take(i), barrier: b}
	}
	b.ready.Wait()
	return b
}

// resume releases the shard workers paused at b and recycles the op slabs
// they returned.
func (e *Engine) resume(b *binBarrier) {
	if b == nil {
		return
	}
	close(b.resume)
	for i := range e.shards {
		e.reclaim(i)
	}
}

// mergeDiverted combines the shards' current-bin divert indexes. Slices
// are ordered by global op sequence so the merged index is exactly the one
// one inline shard would have built.
func (e *Engine) mergeDiverted() map[colo.PoP]map[bgp.ASN][]divertRec {
	var single *pathShard
	contributors := 0
	for _, s := range e.shardStates {
		if len(s.diverted) > 0 {
			contributors++
			single = s
		}
	}
	switch contributors {
	case 0:
		return nil
	case 1:
		// A lone contributor's slices are already in op order; the map is
		// only read until the shards resume (finishBin replaces it).
		return single.diverted
	}
	merged := make(map[colo.PoP]map[bgp.ASN][]divertRec)
	for _, s := range e.shardStates {
		for pop, byNear := range s.diverted {
			dst := merged[pop]
			if dst == nil {
				dst = make(map[bgp.ASN][]divertRec)
				merged[pop] = dst
			}
			for near, recs := range byNear {
				dst[near] = append(dst[near], recs...)
			}
		}
	}
	for _, byNear := range merged {
		for _, recs := range byNear {
			sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
		}
	}
	return merged
}

// Flush closes the current bin and any open outages as of the given time,
// returning all remaining completed outages. The engine stays usable for
// further records afterwards. Flush is safe to call concurrently with
// Close: after Close it only drains already-completed outages.
func (e *Engine) Flush(asOf time.Time) []Outage {
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	if e.closed {
		// The shard workers are gone, so no further bin can close; anything
		// that completed before Close is still drainable.
		return e.inv.drainCompleted()
	}
	e.clock.advance(asOf.Add(e.cfg.BinInterval), e.closeBin)
	if e.opsSinceBarrier {
		// asOf precedes the current bin, which stays open. Let the shards
		// apply what is queued first: settling the probes below edits the
		// waiting maps their restoration watches read. A zero-time barrier
		// runs no promotions.
		e.resume(e.pause(time.Time{}))
	}
	e.inv.finishProbes(asOf)
	e.inv.tracker.closeAll(asOf)
	e.inv.tracker.drainCooling(e.inv)
	return e.inv.drainCompleted()
}

// Incidents returns every classified signal so far. Only valid between
// Process calls (the investigator appends at bin boundaries).
func (e *Engine) Incidents() []Incident { return e.inv.incidents }

// OpenOutages returns the PoPs with ongoing outages.
func (e *Engine) OpenOutages() []colo.PoP { return e.inv.tracker.open() }

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

// Stats snapshots the engine's ingestion counters, including per-shard
// queue depths (in batches).
func (e *Engine) Stats() metrics.IngestSnapshot {
	depths := make([]int, len(e.shards))
	for i, s := range e.shards {
		depths[i] = len(s.in)
	}
	return e.stats.Snapshot(depths)
}

// Checkpoint captures the engine's complete detection state. It is valid
// at bin barriers only: call it either from inside a BinClosed hook (the
// shards are paused and the investigator's bin is fully closed) or between
// Process calls while no route ops have been dispatched since the last bin
// close — any other instant has per-bin divert state in flight that a
// checkpoint does not carry, and is rejected.
//
// The engine keeps the encoded form of the path and stable-baseline
// sections — the checkpoint image — from one capture to the next, so a
// capture costs what changed since the previous one: the first capture
// (also the first after RestoreFrom, and one following a burst that
// outgrew the shards' change lists, such as a RIB dump) encodes the whole
// state and turns change tracking on; an engine that never checkpoints
// tracks nothing. The bytes are those of a from-scratch encoding either
// way. The returned checkpoint shares the image's chunks, which are never
// rewritten, and stays valid while the engine runs on.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	records := e.seen
	if e.inProcess {
		// The in-flight record's ops apply after the barrier: its effects
		// are not part of this checkpoint, so recovery re-reads it.
		records--
	}
	if !e.inBarrier && e.opsSinceBarrier {
		return nil, fmt.Errorf("core: Checkpoint outside a bin barrier with ops in flight; checkpoint from a BinClosed hook")
	}
	// Inside a barrier the shards are paused; outside one, no ops were added
	// since the last, so every shard queue is empty and the workers are
	// idle. Either way the state is the barrier state, safe to read from
	// here, and the clock already stands where the next record resumes it.
	return e.ckpt.capture(e.clock.start, records, e.fan, e.shardStates, e.inv), nil
}

// RestoreFrom loads a checkpoint produced by Checkpoint (on an engine of
// any shard count, inline or not): the next Process call continues exactly
// where the checkpointed pipeline stopped, so re-ingesting the record
// suffix after Checkpoint.Records reproduces the uninterrupted run's output
// and hook sequence byte for byte. It must be called before the first
// Process, after SetProber when the checkpoint carries pending campaigns
// (they are re-submitted here, without re-firing ProbeRequested hooks).
func (e *Engine) RestoreFrom(c *Checkpoint) error {
	if e.seen != 0 || !e.clock.start.IsZero() {
		return fmt.Errorf("core: RestoreFrom must precede the first Process")
	}
	if err := restoreCheckpoint(c, e.cfg, e.shardStates, e.inv, e.fan); err != nil {
		return err
	}
	e.clock.start = c.BinStart
	e.fan.RestoreSeq(c.OpSeq)
	e.seen = c.Records
	return nil
}

// Close stops the shard workers and waits for them to exit. Close is
// idempotent and safe to call concurrently with Flush (daemon shutdown
// paths race the two); Process must not be called afterwards.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.lifecycle.Lock()
		defer e.lifecycle.Unlock()
		e.closed = true
		for _, s := range e.shards {
			close(s.in)
		}
		for _, s := range e.shards {
			<-s.done
		}
	})
}
