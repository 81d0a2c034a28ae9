package events

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"kepler/internal/core"
)

func publishN(b *Bus, n int) {
	for i := 0; i < n; i++ {
		b.Publish(Event{Time: time.Unix(int64(i), 0).UTC(), Kind: KindBinClosed})
	}
}

func seqs(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Seq
	}
	return out
}

func TestReplayCurrentPosition(t *testing.T) {
	b := New(nil, WithRing(16))
	defer b.Close()
	publishN(b, 4)
	backlog, complete := b.Replay(4)
	if len(backlog) != 0 || !complete {
		t.Errorf("up-to-date resume: backlog %v, complete %v", seqs(backlog), complete)
	}
}

func TestReplayEvictedPosition(t *testing.T) {
	b := New(nil, WithRing(4))
	defer b.Close()
	publishN(b, 10) // ring holds 7..10

	backlog, complete := b.Replay(2)
	if complete {
		t.Error("resume past eviction horizon reported complete")
	}
	if want := []uint64{7, 8, 9, 10}; !reflect.DeepEqual(seqs(backlog), want) {
		t.Errorf("backlog = %v, want %v", seqs(backlog), want)
	}

	// Everything evicted, nothing retained to return.
	b2 := New(nil) // no ring at all
	defer b2.Close()
	publishN(b2, 3)
	backlog2, complete2 := b2.Replay(1)
	if complete2 || len(backlog2) != 0 {
		t.Errorf("ringless resume: backlog %v, complete %v", seqs(backlog2), complete2)
	}
}

func TestStartSeqAndSeedRing(t *testing.T) {
	// A recovered daemon: 5 events persisted, the last 3 still in the tail.
	tail := []Event{
		{Seq: 3, Kind: KindBinClosed},
		{Seq: 4, Kind: KindBinClosed},
		{Seq: 5, Kind: KindBinClosed},
	}
	b := New(nil, WithStartSeq(5), WithRing(8))
	defer b.Close()
	b.SeedRing(tail)
	if b.Seq() != 5 {
		t.Fatalf("seeded seq = %d, want 5", b.Seq())
	}

	// New publications continue the persisted numbering.
	publishN(b, 1)
	backlog, complete := b.Replay(3)
	if !complete {
		t.Error("resume across seeded ring boundary reported incomplete")
	}
	if want := []uint64{4, 5, 6}; !reflect.DeepEqual(seqs(backlog), want) {
		t.Errorf("backlog = %v, want %v", seqs(backlog), want)
	}

	// A client from before the snapshot horizon is told it missed events.
	if _, complete2 := b.Replay(1); complete2 {
		t.Error("resume from before the seeded tail reported complete")
	}
}

func TestSinkSeesEveryEventInOrder(t *testing.T) {
	var got []uint64
	b := New(nil, WithSink(func(ev Event) { got = append(got, ev.Seq) }))
	defer b.Close()
	// Sink runs before fan-out: a subscriber that drops must not affect it.
	sub := b.Subscribe(1)
	defer sub.Close()
	publishN(b, 5)
	if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("sink sequence = %v, want %v", got, want)
	}
}

func TestRelayResumeConcurrentWithPublish(t *testing.T) {
	b := New(nil, WithRing(1<<12))
	defer b.Close()
	const prefix, total = 100, 500
	r := NewRelay(b, RelayOptions{Buffer: total})
	publishN(b, prefix) // resume positions below this exist before anyone joins
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		publishN(b, total-prefix)
	}()

	// Clients joining mid-stream must each observe a gapless suffix: ring
	// backlog then relay queue, exactly once, wherever the relay's fan-out
	// position sits relative to the publisher at the join.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(after uint64) {
			defer wg.Done()
			c, backlog, _ := r.SubscribeFrom(after, total, nil)
			defer c.Close()
			last := after
			for _, ev := range backlog {
				if ev.Seq != last+1 {
					t.Errorf("backlog gap: %d after %d", ev.Seq, last)
					return
				}
				last = ev.Seq
			}
			for last < total {
				ev, ok := <-c.Events()
				if !ok {
					t.Errorf("relay closed with client at %d/%d", last, total)
					return
				}
				if ev.Seq != last+1 {
					t.Errorf("delivery gap: %d after %d", ev.Seq, last)
					return
				}
				last = ev.Seq
			}
		}(uint64(i * 10))
	}
	wg.Wait()
}

func TestGateHooksSuppressesPrefix(t *testing.T) {
	var fired []string
	rec := func(name string) func() { return func() { fired = append(fired, name) } }
	h := core.Hooks{
		OutageOpened:       func(core.OutageStatus) { rec("opened")() },
		OutageUpdated:      func(core.OutageStatus) { rec("updated")() },
		OutageResolved:     func(core.Outage) { rec("resolved")() },
		IncidentClassified: func(core.Incident) { rec("incident")() },
		BinClosed:          func(time.Time) { rec("bin")() },
	}
	g := GateHooks(h, 3)

	// The same callback script a deterministic re-ingestion replays.
	script := []func(){
		func() { g.OutageOpened(core.OutageStatus{}) },
		func() { g.IncidentClassified(core.Incident{}) },
		func() { g.BinClosed(time.Time{}) },
		func() { g.OutageUpdated(core.OutageStatus{}) },
		func() { g.OutageResolved(core.Outage{}) },
		func() { g.BinClosed(time.Time{}) },
	}
	for _, call := range script {
		call()
	}
	if want := []string{"updated", "resolved", "bin"}; !reflect.DeepEqual(fired, want) {
		t.Errorf("gated callbacks = %v, want %v", fired, want)
	}
}

func TestGateHooksZeroSkipPassesThrough(t *testing.T) {
	n := 0
	h := core.Hooks{BinClosed: func(time.Time) { n++ }}
	g := GateHooks(h, 0)
	g.BinClosed(time.Time{})
	if n != 1 {
		t.Errorf("zero-skip gate swallowed a callback")
	}
	// And the bridge count matches publications: one event per callback.
	b := New(nil)
	defer b.Close()
	eh := EngineHooks(b)
	eh.BinClosed(time.Now())
	eh.OutageResolved(core.Outage{})
	if got := b.Seq(); got != 2 {
		t.Errorf("bridge published %d events for 2 callbacks", got)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	b := New(nil, WithRing(3))
	defer b.Close()
	for i := 0; i < 7; i++ {
		b.Publish(Event{Kind: Kind(fmt.Sprintf("k%d", i))})
	}
	backlog, _ := b.Replay(0)
	if want := []uint64{5, 6, 7}; !reflect.DeepEqual(seqs(backlog), want) {
		t.Errorf("ring retained %v, want %v", seqs(backlog), want)
	}
}
