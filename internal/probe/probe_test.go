package probe

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/metrics"
)

var t0 = time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC)

// recordingBackend confirms everything and logs execution order.
type recordingBackend struct {
	mu    sync.Mutex
	order []colo.PoP
	delay time.Duration
}

func (b *recordingBackend) Probe(pop colo.PoP, _ time.Time) (bool, bool) {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	b.order = append(b.order, pop)
	b.mu.Unlock()
	return true, true
}

func req(id uint64, at time.Time, cands ...colo.PoP) core.ProbeRequest {
	return core.ProbeRequest{ID: id, At: at, Candidates: cands}
}

func TestSchedulerCompletesCampaigns(t *testing.T) {
	b := &recordingBackend{}
	s := NewScheduler(b, Config{Workers: 3})
	defer s.Close()

	s.Submit(req(1, t0, colo.FacilityPoP(1), colo.IXPPoP(2)))
	s.Submit(req(2, t0, colo.CityPoP(3)))

	vs := s.Collect(t0.Add(time.Minute))
	if len(vs) != 2 || vs[0].ID != 1 || vs[1].ID != 2 {
		t.Fatalf("verdicts = %+v, want ids 1,2", vs)
	}
	for _, v := range vs {
		for _, r := range v.Results {
			if !r.Confirmed || !r.HasData {
				t.Fatalf("result %+v, want confirmed", r)
			}
		}
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", s.Outstanding())
	}
}

// gatedBackend holds its first probe until release is closed, closing
// started once it is inside it, so a test can queue work behind a worker
// that is provably busy.
type gatedBackend struct {
	recordingBackend
	once             sync.Once
	started, release chan struct{}
}

func (b *gatedBackend) Probe(pop colo.PoP, at time.Time) (bool, bool) {
	b.once.Do(func() {
		close(b.started)
		<-b.release
	})
	return b.recordingBackend.Probe(pop, at)
}

// TestSchedulerPriorityOrder pins the dequeue order: facility before IXP
// before city, newest signal first within a kind.
func TestSchedulerPriorityOrder(t *testing.T) {
	// One worker, held inside a sentinel campaign's probe while the four
	// campaigns under test are queued behind it: the execution order after
	// the sentinel is exactly the dequeue order.
	b := &gatedBackend{started: make(chan struct{}), release: make(chan struct{})}
	s := NewScheduler(b, Config{Workers: 1})
	defer s.Close()

	sentinel := colo.CityPoP(99)
	s.Submit(req(1, t0, sentinel))
	<-b.started
	s.Submit(req(2, t0, colo.CityPoP(10)))
	s.Submit(req(3, t0.Add(time.Minute), colo.IXPPoP(20)))
	s.Submit(req(4, t0, colo.FacilityPoP(30)))
	s.Submit(req(5, t0.Add(time.Minute), colo.FacilityPoP(40)))
	close(b.release)
	s.Collect(t0.Add(2 * time.Minute))

	b.mu.Lock()
	order := append([]colo.PoP(nil), b.order...)
	b.mu.Unlock()
	want := []colo.PoP{sentinel, colo.FacilityPoP(40), colo.FacilityPoP(30), colo.IXPPoP(20), colo.CityPoP(10)}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestSchedulerDedup pins that two campaigns probing one target within the
// same bin share a single execution.
func TestSchedulerDedup(t *testing.T) {
	b := &recordingBackend{delay: 5 * time.Millisecond}
	m := &metrics.ProbeStats{}
	s := NewScheduler(b, Config{Workers: 2, Metrics: m})
	defer s.Close()

	target := colo.FacilityPoP(7)
	s.Submit(req(1, t0, target))
	s.Submit(req(2, t0, target))
	vs := s.Collect(t0.Add(time.Minute))
	if len(vs) != 2 {
		t.Fatalf("verdicts = %d", len(vs))
	}
	b.mu.Lock()
	n := len(b.order)
	b.mu.Unlock()
	if n != 1 {
		t.Fatalf("executed %d probes for one deduplicable target", n)
	}
	if m.Deduped.Load() != 1 {
		t.Fatalf("deduped counter = %d", m.Deduped.Load())
	}
}

// TestSchedulerBudgetExhaustion is the dedicated budget scenario: with a
// 2-probe window, a 5-target burst executes exactly two measurements in
// priority order and completes the rest as no-data; after the window
// slides, capacity returns.
func TestSchedulerBudgetExhaustion(t *testing.T) {
	b := &recordingBackend{}
	m := &metrics.ProbeStats{}
	s := NewScheduler(b, Config{Workers: 1, Budget: 2, Window: time.Hour, Metrics: m})
	defer s.Close()

	s.Submit(req(1, t0,
		colo.FacilityPoP(1), colo.FacilityPoP(2), colo.IXPPoP(3), colo.CityPoP(4), colo.CityPoP(5)))
	vs := s.Collect(t0.Add(time.Minute))
	if len(vs) != 1 {
		t.Fatalf("verdicts = %d", len(vs))
	}
	measured := 0
	for _, r := range vs[0].Results {
		if r.HasData {
			measured++
			if r.Target.Kind == colo.PoPCity {
				t.Fatalf("budget spent on a city probe before facilities: %+v", vs[0].Results)
			}
		}
	}
	if measured != 2 {
		t.Fatalf("measured %d targets under a 2-probe budget", measured)
	}
	if m.Denied.Load() != 3 {
		t.Fatalf("denied = %d, want 3", m.Denied.Load())
	}

	// Still inside the window: everything is denied.
	s.Submit(req(2, t0.Add(30*time.Minute), colo.FacilityPoP(9)))
	vs = s.Collect(t0.Add(31 * time.Minute))
	if len(vs) != 1 || vs[0].Results[0].HasData {
		t.Fatalf("expected denial inside the window, got %+v", vs)
	}

	// Past the window: the budget has slid free.
	s.Submit(req(3, t0.Add(2*time.Hour), colo.FacilityPoP(9)))
	vs = s.Collect(t0.Add(2*time.Hour + time.Minute))
	if len(vs) != 1 || !vs[0].Results[0].HasData || !vs[0].Results[0].Confirmed {
		t.Fatalf("expected measurement after the window slid, got %+v", vs)
	}
}

// TestSchedulerCooldownCache pins the verdict cache: a target probed again
// within the cooldown answers from cache without touching the backend, and
// re-measures once the cooldown lapses.
func TestSchedulerCooldownCache(t *testing.T) {
	b := &recordingBackend{}
	m := &metrics.ProbeStats{}
	s := NewScheduler(b, Config{Workers: 1, Cooldown: 10 * time.Minute, Metrics: m})
	defer s.Close()

	target := colo.FacilityPoP(5)
	s.Submit(req(1, t0, target))
	s.Collect(t0.Add(time.Minute))

	s.Submit(req(2, t0.Add(5*time.Minute), target))
	vs := s.Collect(t0.Add(6 * time.Minute))
	if len(vs) != 1 || !vs[0].Results[0].HasData {
		t.Fatalf("cached verdict missing: %+v", vs)
	}
	if m.CacheHits.Load() != 1 {
		t.Fatalf("cache hits = %d", m.CacheHits.Load())
	}
	if got := m.Executed.Load(); got != 1 {
		t.Fatalf("executed = %d, want 1 (second probe served from cache)", got)
	}

	s.Submit(req(3, t0.Add(30*time.Minute), target))
	s.Collect(t0.Add(31 * time.Minute))
	if got := m.Executed.Load(); got != 2 {
		t.Fatalf("executed = %d, want 2 after cooldown lapsed", got)
	}
}

// TestVerdictCacheLRU pins the eviction order of the cache itself.
func TestVerdictCacheLRU(t *testing.T) {
	c := newVerdictCache(2)
	c.put(colo.FacilityPoP(1), cacheEntry{at: t0, hasData: true})
	c.put(colo.FacilityPoP(2), cacheEntry{at: t0, hasData: true})
	c.get(colo.FacilityPoP(1)) // 1 becomes most recent
	c.put(colo.FacilityPoP(3), cacheEntry{at: t0, hasData: true})
	if _, ok := c.get(colo.FacilityPoP(2)); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	for _, id := range []colo.FacilityID{1, 3} {
		if _, ok := c.get(colo.FacilityPoP(id)); !ok {
			t.Fatalf("entry %d evicted wrongly", id)
		}
	}
}

type gateBackend struct{ gate chan struct{} }

func (b *gateBackend) Probe(colo.PoP, time.Time) (bool, bool) {
	<-b.gate
	return true, true
}

// TestSchedulerCloseUnblocksCollect pins the shutdown path: closing the
// scheduler completes queued work as no-data and releases a deterministic
// Collect waiter instead of deadlocking.
func TestSchedulerCloseUnblocksCollect(t *testing.T) {
	block := make(chan struct{})
	b := &gateBackend{gate: block}
	s := NewScheduler(b, Config{Workers: 1})
	s.Submit(req(1, t0, colo.FacilityPoP(1), colo.FacilityPoP(2)))

	done := make(chan struct{})
	go func() {
		s.Collect(t0.Add(time.Minute))
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	close(block) // let the in-flight probe finish so Close can join workers
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Collect deadlocked across Close")
	}
}

// TestSchedulerConcurrentStress drives many campaigns through many workers
// under -race: verdicts must arrive complete, ordered and exactly once.
func TestSchedulerConcurrentStress(t *testing.T) {
	var executed atomic.Int64
	b := backendFunc(func(pop colo.PoP, at time.Time) (bool, bool) {
		executed.Add(1)
		return pop.ID%2 == 0, true
	})
	m := &metrics.ProbeStats{}
	s := NewScheduler(b, Config{Workers: 8, Cooldown: time.Minute, CacheSize: 32, Metrics: m})
	defer s.Close()

	seen := map[uint64]bool{}
	var id uint64
	for round := 0; round < 20; round++ {
		at := t0.Add(time.Duration(round) * time.Minute)
		for i := 0; i < 10; i++ {
			id++
			s.Submit(req(id, at,
				colo.FacilityPoP(colo.FacilityID(i%5+1)),
				colo.IXPPoP(colo.IXPID(i%3+1)),
				colo.CityPoP(1)))
		}
		vs := s.Collect(at.Add(time.Minute))
		last := uint64(0)
		for _, v := range vs {
			if v.ID <= last {
				t.Fatalf("verdicts unordered: %d after %d", v.ID, last)
			}
			last = v.ID
			if seen[v.ID] {
				t.Fatalf("verdict %d delivered twice", v.ID)
			}
			seen[v.ID] = true
			if len(v.Results) != 3 {
				t.Fatalf("verdict %d incomplete: %+v", v.ID, v.Results)
			}
		}
	}
	if len(seen) != int(id) {
		t.Fatalf("delivered %d of %d campaigns", len(seen), id)
	}
	if m.CacheHits.Load()+m.Deduped.Load() == 0 {
		t.Fatal("stress run never exercised dedup or the cache")
	}
}

type backendFunc func(colo.PoP, time.Time) (bool, bool)

func (f backendFunc) Probe(pop colo.PoP, at time.Time) (bool, bool) { return f(pop, at) }

// TestReplayBackend pins the replayed-archive backend semantics.
func TestReplayBackend(t *testing.T) {
	r := NewReplay(map[colo.PoP]Verdict{
		colo.FacilityPoP(1): {Confirmed: true, HasData: true},
		colo.FacilityPoP(2): {Confirmed: false, HasData: true},
	})
	if c, h := r.Probe(colo.FacilityPoP(1), t0); !c || !h {
		t.Fatal("recorded confirmation not replayed")
	}
	if c, h := r.Probe(colo.FacilityPoP(2), t0); c || !h {
		t.Fatal("recorded refutation not replayed")
	}
	if _, h := r.Probe(colo.FacilityPoP(9), t0); h {
		t.Fatal("unrecorded target answered with data")
	}
	if r.Queries() != 3 {
		t.Fatalf("queries = %d", r.Queries())
	}
}

// TestFaultBackendDeterministic pins that fault injection is a pure
// function of the probe identity: the same (target, at, seed) always takes
// the same loss decision, regardless of call order.
func TestFaultBackendDeterministic(t *testing.T) {
	inner := backendFunc(func(colo.PoP, time.Time) (bool, bool) { return true, true })
	f := &Fault{Inner: inner, LossRate: 0.5, Seed: 42}

	type key struct {
		id uint32
		at int64
	}
	first := map[key]bool{}
	for pass := 0; pass < 2; pass++ {
		lost := 0
		for i := uint32(1); i <= 40; i++ {
			at := t0.Add(time.Duration(i) * time.Minute)
			_, hasData := f.Probe(colo.FacilityPoP(colo.FacilityID(i)), at)
			k := key{i, at.Unix()}
			if pass == 0 {
				first[k] = hasData
				if !hasData {
					lost++
				}
			} else if first[k] != hasData {
				t.Fatalf("loss decision for %v changed between passes", k)
			}
		}
		if pass == 0 && (lost == 0 || lost == 40) {
			t.Fatalf("loss rate 0.5 lost %d of 40 probes", lost)
		}
	}
}
