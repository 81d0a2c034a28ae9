package events

import (
	"sync"
	"testing"
	"time"
)

// drainAll reads a client's channel until it closes, returning every event
// in delivery order. Closing the bus is the test's barrier: the relay drains
// the upstream queue, fans everything out, then closes client channels.
func drainAll(c *RelayClient) []Event {
	var got []Event
	for ev := range c.Events() {
		got = append(got, ev)
	}
	return got
}

func TestRelayFanoutOrderingSingleUpstream(t *testing.T) {
	b := New(nil)
	r := NewRelay(b, RelayOptions{})
	defer r.Close()

	const clients, n = 8, 50
	cs := make([]*RelayClient, clients)
	for i := range cs {
		cs[i] = r.Subscribe(n+1, nil)
	}
	// N relay clients cost the bus exactly one subscriber.
	if st := b.Stats(); st.Subscribers != 1 {
		t.Fatalf("bus subscribers = %d, want 1", st.Subscribers)
	}
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		b.Publish(ev(KindBinClosed, base.Add(time.Duration(i)*time.Minute)))
	}
	b.Close()

	for ci, c := range cs {
		got := drainAll(c)
		if len(got) != n {
			t.Fatalf("client %d received %d events, want %d", ci, len(got), n)
		}
		for i, e := range got {
			if e.Seq != uint64(i+1) {
				t.Fatalf("client %d event %d has seq %d, want %d", ci, i, e.Seq, i+1)
			}
		}
		if c.Dropped() != 0 || c.Shed() != 0 {
			t.Errorf("client %d dropped=%d shed=%d, want 0/0", ci, c.Dropped(), c.Shed())
		}
	}
	info := r.Info()
	if info.Deliveries != clients*n {
		t.Errorf("deliveries = %d, want %d", info.Deliveries, clients*n)
	}
	if info.UpstreamDropped != 0 {
		t.Errorf("upstream dropped = %d, want 0", info.UpstreamDropped)
	}
}

func TestRelaySlowDownstreamIsolation(t *testing.T) {
	// One stalled relay client must lose only its own events: fast clients
	// see everything and the single upstream queue never backs up past its
	// capacity, so the publisher is never slowed and never drops.
	const n = 500
	b := New(nil)
	r := NewRelay(b, RelayOptions{Buffer: n})
	defer r.Close()
	stalled := r.Subscribe(2, nil) // never read until the end
	fast1 := r.Subscribe(n, nil)
	fast2 := r.Subscribe(n, nil)

	var wg sync.WaitGroup
	results := make([][]Event, 2)
	for i, c := range []*RelayClient{fast1, fast2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = drainAll(c)
		}()
	}
	for i := 0; i < n; i++ {
		b.Publish(ev(KindBinClosed, time.Time{}))
		// The publisher's only queue is the relay's upstream subscription;
		// no matter how many downstream clients stall, its depth is bounded
		// by its own capacity.
		if info := r.Info(); info.UpstreamDepth > info.UpstreamCap {
			t.Fatalf("upstream depth %d exceeds cap %d", info.UpstreamDepth, info.UpstreamCap)
		}
	}
	b.Close()
	wg.Wait()

	for i, got := range results {
		if len(got) != n {
			t.Fatalf("fast client %d received %d events, want %d", i, len(got), n)
		}
		for j, e := range got {
			if e.Seq != uint64(j+1) {
				t.Fatalf("fast client %d event %d has seq %d", i, j, e.Seq)
			}
		}
	}
	held := drainAll(stalled)
	if len(held) != 2 {
		t.Fatalf("stalled client holds %d events, want 2 (its buffer)", len(held))
	}
	// The stalled client holds the oldest events, loses the rest — and
	// nothing upstream was lost on its account.
	if held[0].Seq != 1 {
		t.Errorf("stalled client first seq = %d, want 1", held[0].Seq)
	}
	if d := stalled.Dropped(); d != n-2 {
		t.Errorf("stalled client dropped = %d, want %d", d, n-2)
	}
	if info := r.Info(); info.UpstreamDropped != 0 {
		t.Errorf("upstream dropped = %d, want 0", info.UpstreamDropped)
	}
	if got := r.Info().Dropped; got != n-2 {
		t.Errorf("relay dropped = %d, want %d", got, n-2)
	}
}

func TestRelayResumeExactlyOnce(t *testing.T) {
	b := New(nil, WithRing(64))
	r := NewRelay(b, RelayOptions{})
	defer r.Close()

	// A live client acts as the fan-out barrier: once it has received seq
	// k, the relay's lastRelayed is at least k.
	live := r.Subscribe(32, nil)
	for i := 0; i < 5; i++ {
		b.Publish(ev(KindBinClosed, time.Time{}))
	}
	for i := 0; i < 5; i++ {
		if e := <-live.Events(); e.Seq != uint64(i+1) {
			t.Fatalf("live client got seq %d, want %d", e.Seq, i+1)
		}
	}

	// Resume after seq 2: backlog covers (2, 5] from the ring, everything
	// later arrives through the queue exactly once.
	resumed, backlog, complete := r.SubscribeFrom(2, 32, nil)
	if !complete {
		t.Fatal("resume within ring reported incomplete")
	}
	if len(backlog) != 3 {
		t.Fatalf("backlog has %d events, want 3: %+v", len(backlog), backlog)
	}
	for i, e := range backlog {
		if e.Seq != uint64(i+3) {
			t.Fatalf("backlog[%d].Seq = %d, want %d", i, e.Seq, i+3)
		}
	}
	for i := 0; i < 3; i++ {
		b.Publish(ev(KindBinClosed, time.Time{}))
	}
	b.Close()
	got := drainAll(resumed)
	if len(got) != 3 {
		t.Fatalf("resumed client queue delivered %d events, want 3", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+6) {
			t.Fatalf("resumed queue event %d has seq %d, want %d", i, e.Seq, i+6)
		}
	}
}

func TestRelayResumeEvictedRing(t *testing.T) {
	b := New(nil, WithRing(2))
	r := NewRelay(b, RelayOptions{})
	defer r.Close()

	live := r.Subscribe(32, nil)
	for i := 0; i < 6; i++ {
		b.Publish(ev(KindBinClosed, time.Time{}))
	}
	for i := 0; i < 6; i++ {
		<-live.Events()
	}
	// Position 1 left the ring long ago: the client must learn its resume
	// is incomplete rather than silently skipping events.
	_, backlog, complete := r.SubscribeFrom(1, 8, nil)
	if complete {
		t.Error("resume past ring eviction reported complete")
	}
	for _, e := range backlog {
		if e.Seq <= 1 {
			t.Errorf("backlog contains already-seen seq %d", e.Seq)
		}
	}
	b.Close()
}

func TestRelayFreshJoinSkipsQueuedPast(t *testing.T) {
	// Events published before a fresh join — even ones still queued
	// upstream of the relay — must not reach the new client, matching
	// direct bus-subscribe semantics.
	b := New(nil)
	r := NewRelay(b, RelayOptions{})
	defer r.Close()

	for i := 0; i < 4; i++ {
		b.Publish(ev(KindBinClosed, time.Time{}))
	}
	c := r.Subscribe(16, nil)
	b.Publish(ev(KindBinClosed, time.Time{}))
	b.Close()
	for _, e := range drainAll(c) {
		if e.Seq <= 4 {
			t.Errorf("fresh client received pre-join seq %d", e.Seq)
		}
	}
}

func TestRelayShedNewestJoinFirst(t *testing.T) {
	// Aggregate budget 10, two non-reading clients joined in order. The
	// fan-out visits oldest first, so when the budget runs out it is the
	// newest joiner that sheds — deterministically, with no reader races.
	b := New(nil)
	r := NewRelay(b, RelayOptions{MaxQueued: 10})
	defer r.Close()

	oldC := r.Subscribe(10, nil)
	newC := r.Subscribe(10, nil)
	for i := 0; i < 10; i++ {
		b.Publish(ev(KindBinClosed, time.Time{}))
	}
	// Draining frees budget, so let the relay finish the whole fan-out
	// (every event either delivered or shed, per client) before reading.
	for deadline := time.Now().Add(5 * time.Second); r.Info().Deliveries+r.Info().Shed < 20; {
		if time.Now().After(deadline) {
			t.Fatalf("fan-out stalled at %+v", r.Info())
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()

	oldGot := drainAll(oldC)
	newGot := drainAll(newC)
	if len(oldGot) != 10 {
		t.Errorf("old client received %d events, want all 10", len(oldGot))
	}
	if oldC.Shed() != 0 {
		t.Errorf("old client shed = %d, want 0", oldC.Shed())
	}
	// Event k sees queued=k from the old client; the new one receives only
	// while k+depth stays under budget: seqs 1..5.
	if len(newGot) != 5 {
		t.Errorf("new client received %d events, want 5", len(newGot))
	}
	for i, e := range newGot {
		if e.Seq != uint64(i+1) {
			t.Errorf("new client event %d has seq %d, want %d (shed must cut a suffix, not the middle)", i, e.Seq, i+1)
		}
	}
	if newC.Shed() != 5 || newC.Dropped() != 0 {
		t.Errorf("new client shed=%d dropped=%d, want 5/0", newC.Shed(), newC.Dropped())
	}
	if info := r.Info(); info.Shed != 5 || info.Deliveries != 15 {
		t.Errorf("relay shed=%d deliveries=%d, want 5/15", info.Shed, info.Deliveries)
	}
}

func TestRelayKindFilter(t *testing.T) {
	b := New(nil)
	r := NewRelay(b, RelayOptions{})
	defer r.Close()

	only := r.Subscribe(16, map[Kind]bool{KindIncident: true})
	all := r.Subscribe(16, nil)
	kinds := []Kind{KindBinClosed, KindIncident, KindOutageResolved, KindIncident, KindBinClosed}
	for _, k := range kinds {
		b.Publish(ev(k, time.Time{}))
	}
	b.Close()

	got := drainAll(only)
	if len(got) != 2 {
		t.Fatalf("filtered client received %d events, want 2", len(got))
	}
	if got[0].Seq != 2 || got[1].Seq != 4 {
		t.Errorf("filtered client seqs = %d,%d, want 2,4", got[0].Seq, got[1].Seq)
	}
	if got := drainAll(all); len(got) != len(kinds) {
		t.Errorf("unfiltered client received %d events, want %d", len(got), len(kinds))
	}
	// Filtered-out events are not drops: the client opted out of them.
	if only.Dropped() != 0 || only.Shed() != 0 {
		t.Errorf("filtered client dropped=%d shed=%d, want 0/0", only.Dropped(), only.Shed())
	}
}

func TestRelayClientCloseIsolated(t *testing.T) {
	b := New(nil)
	r := NewRelay(b, RelayOptions{})
	defer r.Close()

	leaver := r.Subscribe(16, nil)
	stayer := r.Subscribe(16, nil)
	b.Publish(ev(KindBinClosed, time.Time{}))
	// Barrier on the stayer so the publish has fanned out before we leave.
	<-stayer.Events()
	leaver.Close()
	leaver.Close() // idempotent
	// The leaver keeps what it had already been handed, nothing more.
	if got := drainAll(leaver); len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("leaver events = %+v, want just seq 1", got)
	}
	b.Publish(ev(KindBinClosed, time.Time{}))
	b.Close()
	if got := drainAll(stayer); len(got) != 1 || got[0].Seq != 2 {
		t.Errorf("stayer post-leave events = %+v, want just seq 2", got)
	}
	if info := r.Info(); info.Joins != 2 || info.Leaves != 1 {
		t.Errorf("joins=%d leaves=%d, want 2/1", info.Joins, info.Leaves)
	}
}

func TestRelayShutdownOnBusClose(t *testing.T) {
	b := New(nil)
	r := NewRelay(b, RelayOptions{})
	c := r.Subscribe(16, nil)
	for i := 0; i < 3; i++ {
		b.Publish(ev(KindBinClosed, time.Time{}))
	}
	b.Close()
	// Everything queued before the close is still delivered.
	if got := drainAll(c); len(got) != 3 {
		t.Errorf("received %d events across shutdown, want 3", len(got))
	}
	r.Close() // idempotent after bus close
	// Joining a shut-down relay yields an immediately-closed client.
	late := r.Subscribe(4, nil)
	if _, ok := <-late.Events(); ok {
		t.Error("post-shutdown client delivered an event")
	}
	if r.Info().Clients != 0 {
		t.Errorf("clients after shutdown = %d, want 0", r.Info().Clients)
	}
}

func TestRelayConcurrentChurn(t *testing.T) {
	// Race-detector workout: clients joining, reading, and leaving while
	// the bus publishes and observers poll Info/ClientDepths.
	b := New(nil, WithRing(128))
	r := NewRelay(b, RelayOptions{Buffer: 256, MaxQueued: 1 << 20})
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			b.Publish(ev(KindBinClosed, time.Time{}))
		}
		close(stop)
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var c *RelayClient
				if i%2 == 0 {
					c = r.Subscribe(8, nil)
				} else {
					c, _, _ = r.SubscribeFrom(uint64(i), 8, nil)
				}
				for j := 0; j < 4; j++ {
					select {
					case _, ok := <-c.Events():
						if !ok {
							return
						}
					case <-stop:
					}
				}
				c.Close()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Info()
				r.ClientDepths()
			}
		}
	}()
	wg.Wait()
	b.Close()
}
