// Package probe is Kepler's active-measurement subsystem, and its one path
// to the data plane: an asynchronous scheduler that turns the
// investigator's point-in-time confirmation needs into probe campaigns
// executed concurrently against a pluggable Backend, under the measurement
// budgets public platforms impose (Section 4.3: "we resort to targeted
// traceroute queries to discover the outage source"; Section 4.4's
// validation). The paper experiments, the examples and keplerd all measure
// through it.
//
// The engine parks a signal group and submits a campaign at bin close
// (core.Prober); the scheduler deduplicates targets against in-flight
// probes and a cooldown-guarded LRU verdict cache, orders execution by
// localization specificity (facility > IXP > city) and signal recency,
// charges every probe against a sliding-window budget (denied probes
// complete as no-data, mirroring an exhausted platform), and hands
// completed verdicts back at the next bin barrier. Collect waits for every
// outstanding campaign, which makes the engine's output a pure function of
// the record stream — the property the store's replay gate and the
// worker-count equivalence test rely on. A bin close therefore waits on a
// slow backend.
//
// Worker scheduling must never influence results for that property to
// hold, so every outcome-bearing decision happens on the submitting or
// collecting goroutine: budget slots are charged (and denials decided) at
// Submit time in campaign-and-candidate order, cache lookups happen at
// Submit, and executed verdicts enter the cache at Collect in a sorted
// order — workers only decide *when* a probe runs, never *whether* or
// what the shared state looks like afterwards.
package probe

import (
	"log/slog"
	"sort"
	"sync"
	"time"

	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/metrics"
	"kepler/internal/slogx"
)

// Backend is Kepler's measurement interface (Section 4.4): it executes one
// measurement — does the data plane confirm an outage of pop as of the
// stream instant at, that is, did the baseline paths stop crossing it?
// hasData=false means no measurement was possible (no vantage, loss), and
// the control-plane inference then stands unvalidated. Implementations
// must be safe for concurrent use: the scheduler's workers call Probe in
// parallel. pipeline.SimDataPlane and pipeline.WindowDataPlane measure the
// simulated substrate; Replay serves recorded verdicts; Fault wraps any
// backend with latency and loss.
type Backend interface {
	Probe(pop colo.PoP, at time.Time) (confirmed, hasData bool)
}

// Config tunes a Scheduler.
type Config struct {
	// Workers is the number of concurrent probe executors (default 4).
	Workers int
	// Budget caps executed probes per Window; <= 0 is unbounded. It is the
	// one measurement budget: a probe that cannot get a slot completes
	// immediately as no-data, the exhausted-platform behavior.
	Budget int
	// Window is the sliding budget window, in stream time (default 1h).
	Window time.Duration
	// Cooldown suppresses re-probing a target measured less than this long
	// ago (stream time): the cached verdict answers instead. Zero disables.
	Cooldown time.Duration
	// CacheSize bounds the LRU verdict cache (default 256 when Cooldown is
	// set, 0 otherwise).
	CacheSize int
	// Metrics receives scheduler counters. Optional.
	Metrics *metrics.ProbeStats
	// Logger receives campaign lifecycle reports at debug level and budget
	// denials at warn level. Nil discards them.
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Window <= 0 {
		c.Window = time.Hour
	}
	if c.CacheSize == 0 && c.Cooldown > 0 {
		c.CacheSize = 256
	}
}

// targetKey identifies one deduplicable measurement: a PoP queried as of
// one signal bin. Campaigns of the same bin share the execution.
type targetKey struct {
	pop colo.PoP
	at  int64 // unix seconds of the signal bin close
}

// task is one scheduled measurement, shared by every campaign slot that
// requested the same target.
type task struct {
	target colo.PoP
	at     time.Time
	campID uint64 // first requesting campaign: priority tiebreak
	slots  []slotRef

	done      bool
	confirmed bool
	hasData   bool
}

type slotRef struct {
	c   *campaign
	idx int
}

// campaign tracks one core.ProbeRequest through execution.
type campaign struct {
	id        uint64
	results   []core.ProbeResult
	remaining int
}

func (c *campaign) fill(idx int, r core.ProbeResult) {
	c.results[idx] = r
	c.remaining--
}

// Scheduler is the asynchronous probe campaign executor; it implements
// core.Prober. Use NewScheduler; call Close when done.
type Scheduler struct {
	backend Backend
	cfg     Config
	m       *metrics.ProbeStats
	log     *slog.Logger

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*task
	inflight  map[targetKey]*task
	campaigns map[uint64]*campaign
	cache     *verdictCache
	// cacheStage holds executed results between barriers; Collect installs
	// them into the LRU in a sorted order so the cache state never depends
	// on worker completion order.
	cacheStage []*task
	budget     []time.Time // stream-time stamps of budget charges
	closed     bool

	wg sync.WaitGroup
}

// NewScheduler starts a scheduler over the backend with cfg.Workers
// executor goroutines.
func NewScheduler(b Backend, cfg Config) *Scheduler {
	cfg.defaults()
	log := cfg.Logger
	if log == nil {
		log = slogx.Discard()
	}
	s := &Scheduler{
		backend:   b,
		cfg:       cfg,
		m:         cfg.Metrics,
		log:       log,
		inflight:  make(map[targetKey]*task),
		campaigns: make(map[uint64]*campaign),
		cache:     newVerdictCache(cfg.CacheSize),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// rankOf orders execution by localization specificity: facility probes
// pin the most specific epicenters and run first, then IXPs, then cities.
func rankOf(k colo.PoPKind) int {
	switch k {
	case colo.PoPFacility:
		return 0
	case colo.PoPIXP:
		return 1
	case colo.PoPCity:
		return 2
	default:
		return 3
	}
}

// Submit implements core.Prober: it registers the campaign, satisfies what
// it can from the verdict cache and in-flight dedup, charges the budget
// for the rest — in candidate order, on this goroutine, so a constrained
// budget denies the same probes on every replay of the same stream — and
// queues the charged targets for the workers. Called from the ingestion
// goroutine at bin close.
func (s *Scheduler) Submit(req core.ProbeRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &campaign{
		id:        req.ID,
		results:   make([]core.ProbeResult, len(req.Candidates)),
		remaining: len(req.Candidates),
	}
	s.campaigns[req.ID] = c
	if s.m != nil {
		s.m.Campaigns.Add(1)
		s.m.Targets.Add(int64(len(req.Candidates)))
	}
	if s.closed {
		// Shutdown race: complete the campaign as unmeasured rather than
		// leaving the engine parked forever.
		for i, pop := range req.Candidates {
			c.fill(i, core.ProbeResult{Target: pop})
		}
		return
	}
	for i, pop := range req.Candidates {
		if s.cfg.Cooldown > 0 {
			if ent, ok := s.cache.get(pop); ok && !req.At.Before(ent.at) && req.At.Sub(ent.at) <= s.cfg.Cooldown {
				c.fill(i, core.ProbeResult{Target: pop, Confirmed: ent.confirmed, HasData: ent.hasData})
				if s.m != nil {
					s.m.CacheHits.Add(1)
				}
				continue
			}
		}
		key := targetKey{pop: pop, at: req.At.Unix()}
		if t := s.inflight[key]; t != nil {
			if t.done {
				c.fill(i, core.ProbeResult{Target: pop, Confirmed: t.confirmed, HasData: t.hasData})
			} else {
				t.slots = append(t.slots, slotRef{c: c, idx: i})
			}
			if s.m != nil {
				s.m.Deduped.Add(1)
			}
			continue
		}
		if !s.acquireBudgetLocked(req.At) {
			// Denied probes complete immediately as no-data; they are still
			// recorded in the in-flight index so same-bin duplicates share
			// the denial instead of burning another slot check.
			t := &task{target: pop, at: req.At, campID: req.ID, done: true}
			s.inflight[key] = t
			c.fill(i, core.ProbeResult{Target: pop})
			continue
		}
		t := &task{target: pop, at: req.At, campID: req.ID, slots: []slotRef{{c: c, idx: i}}}
		s.inflight[key] = t
		s.queue = append(s.queue, t)
	}
	s.log.Debug("probe campaign submitted", "campaign", req.ID,
		"candidates", len(req.Candidates), "queued", len(s.queue))
	s.cond.Broadcast()
}

// Collect implements core.Prober: completed campaigns are returned sorted
// by id and forgotten. It first waits for every outstanding campaign, so a
// bin barrier observes exactly the verdicts of everything submitted before
// it.
func (s *Scheduler) Collect(binEnd time.Time) []core.ProbeVerdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.outstandingLocked() {
		s.cond.Wait()
	}
	var out []core.ProbeVerdict
	for id, c := range s.campaigns {
		if c.remaining > 0 {
			continue
		}
		out = append(out, core.ProbeVerdict{ID: id, Results: c.results})
		delete(s.campaigns, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	// Install the barrier's executed results into the verdict cache in a
	// content-derived order: the LRU's state (and therefore its eviction
	// choices) must be a function of what was measured, not of which worker
	// finished first.
	sort.Slice(s.cacheStage, func(i, j int) bool {
		a, b := s.cacheStage[i], s.cacheStage[j]
		if !a.at.Equal(b.at) {
			return a.at.Before(b.at)
		}
		if ra, rb := rankOf(a.target.Kind), rankOf(b.target.Kind); ra != rb {
			return ra < rb
		}
		return a.target.ID < b.target.ID
	})
	for _, t := range s.cacheStage {
		s.cache.put(t.target, cacheEntry{at: t.at, confirmed: t.confirmed, hasData: t.hasData})
	}
	s.cacheStage = nil
	// Done tasks have served their same-bin dedup purpose; drop them so the
	// in-flight index stays bounded by actual outstanding work.
	for key, t := range s.inflight {
		if t.done {
			delete(s.inflight, key)
		}
	}
	if s.m != nil {
		s.m.Collected.Add(int64(len(out)))
	}
	return out
}

func (s *Scheduler) outstandingLocked() bool {
	for _, c := range s.campaigns {
		if c.remaining > 0 {
			return true
		}
	}
	return false
}

// Outstanding reports the number of campaigns not yet fully measured.
func (s *Scheduler) Outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.campaigns {
		if c.remaining > 0 {
			n++
		}
	}
	return n
}

// Close stops the workers. Queued probes are abandoned and their campaigns
// completed as no-data so a concurrent Collect cannot block forever.
// Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, t := range s.queue {
		s.completeLocked(t, false, false)
	}
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// popTaskLocked removes and returns the highest-priority queued task:
// most specific PoP kind first, then newest signal, then lowest campaign
// id — a total order, so concurrent workers drain deterministically.
func (s *Scheduler) popTaskLocked() *task {
	best := -1
	for i, t := range s.queue {
		if best < 0 {
			best = i
			continue
		}
		b := s.queue[best]
		ri, rb := rankOf(t.target.Kind), rankOf(b.target.Kind)
		switch {
		case ri != rb:
			if ri < rb {
				best = i
			}
		case !t.at.Equal(b.at):
			if t.at.After(b.at) {
				best = i
			}
		case t.campID < b.campID:
			best = i
		}
	}
	t := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return t
}

// acquireBudgetLocked charges one probe at stream time at against the
// sliding window. Charging happens at Submit, on the ingestion goroutine,
// so which probe a constrained budget denies is a deterministic function
// of campaign-and-candidate order, untouched by worker scheduling.
func (s *Scheduler) acquireBudgetLocked(at time.Time) bool {
	if s.cfg.Budget <= 0 {
		return true
	}
	keep := s.budget[:0]
	for _, ts := range s.budget {
		if at.Sub(ts) < s.cfg.Window {
			keep = append(keep, ts)
		}
	}
	s.budget = keep
	if len(s.budget) >= s.cfg.Budget {
		s.log.Warn("probe denied by sliding-window budget",
			"budget", s.cfg.Budget, "window", s.cfg.Window)
		if s.m != nil {
			s.m.Denied.Add(1)
		}
		return false
	}
	s.budget = append(s.budget, at)
	return true
}

// completeLocked records a task result, fills every waiting campaign slot
// and wakes Collect waiters.
func (s *Scheduler) completeLocked(t *task, confirmed, hasData bool) {
	t.done = true
	t.confirmed = confirmed
	t.hasData = hasData
	for _, sl := range t.slots {
		sl.c.fill(sl.idx, core.ProbeResult{Target: t.target, Confirmed: confirmed, HasData: hasData})
	}
	t.slots = nil
	s.cond.Broadcast()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		t := s.popTaskLocked()
		s.mu.Unlock()

		confirmed, hasData := s.backend.Probe(t.target, t.at)

		s.mu.Lock()
		if s.m != nil {
			s.m.Executed.Add(1)
		}
		s.completeLocked(t, confirmed, hasData)
		s.cacheStage = append(s.cacheStage, t)
		s.mu.Unlock()
	}
}

// cacheEntry is one cached verdict.
type cacheEntry struct {
	at        time.Time
	confirmed bool
	hasData   bool
}

// verdictCache is a small LRU of per-target verdicts backing the cooldown.
type verdictCache struct {
	cap     int
	entries map[colo.PoP]*cacheNode
	head    *cacheNode // most recent
	tail    *cacheNode // least recent
}

type cacheNode struct {
	pop        colo.PoP
	ent        cacheEntry
	prev, next *cacheNode
}

func newVerdictCache(capacity int) *verdictCache {
	return &verdictCache{cap: capacity, entries: make(map[colo.PoP]*cacheNode)}
}

func (c *verdictCache) get(pop colo.PoP) (cacheEntry, bool) {
	n := c.entries[pop]
	if n == nil {
		return cacheEntry{}, false
	}
	c.moveFront(n)
	return n.ent, true
}

func (c *verdictCache) put(pop colo.PoP, ent cacheEntry) {
	if c.cap <= 0 {
		return
	}
	if n := c.entries[pop]; n != nil {
		n.ent = ent
		c.moveFront(n)
		return
	}
	n := &cacheNode{pop: pop, ent: ent}
	c.entries[pop] = n
	c.pushFront(n)
	if len(c.entries) > c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.entries, evict.pop)
	}
}

func (c *verdictCache) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *verdictCache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *verdictCache) moveFront(n *cacheNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
