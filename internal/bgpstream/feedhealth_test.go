package bgpstream

import (
	"reflect"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/mrt"
)

func feedRec(coll string, peer bgp.ASN, at time.Time) *mrt.Record {
	return &mrt.Record{Kind: mrt.KindUpdate, Collector: coll, PeerAS: peer, Time: at}
}

func TestFeedWatchdogTransitions(t *testing.T) {
	t0 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	w := NewFeedWatchdog(5 * time.Minute)

	w.Observe(feedRec("rrc00", 64500, t0))
	w.Observe(feedRec("rrc00", 64501, t0))
	w.Observe(feedRec("rrc01", 64500, t0))

	if w.Due(t0.Add(time.Minute)) {
		t.Fatal("nothing should be due one minute in")
	}
	if trs := w.Evaluate(t0.Add(time.Minute)); len(trs) != 0 {
		t.Fatalf("expected no transitions, got %v", trs)
	}

	// rrc00/64501 and all of rrc01 go silent; the rest keep talking.
	w.Observe(feedRec("rrc00", 64500, t0.Add(4*time.Minute)))
	end := t0.Add(6 * time.Minute)
	if !w.Due(end) {
		t.Fatal("silence threshold crossed, Due must report it")
	}
	trs := w.Evaluate(end)
	want := []FeedTransition{
		{Scope: ScopeCollector, Collector: "rrc01", Degraded: true, LastSeen: t0, At: end},
		{Scope: ScopePeer, Collector: "rrc00", PeerAS: 64501, Degraded: true, LastSeen: t0, At: end},
		{Scope: ScopePeer, Collector: "rrc01", PeerAS: 64500, Degraded: true, LastSeen: t0, At: end},
	}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("degraded transitions:\n got %+v\nwant %+v", trs, want)
	}
	// Committed: re-evaluating the same end is quiescent.
	if w.Due(end) {
		t.Fatal("Due must clear once transitions are committed")
	}
	if trs := w.Evaluate(end); len(trs) != 0 {
		t.Fatalf("expected committed state, got %v", trs)
	}

	// rrc01 comes back.
	back := t0.Add(7 * time.Minute)
	w.Observe(feedRec("rrc01", 64500, back))
	trs = w.Evaluate(t0.Add(8 * time.Minute))
	want = []FeedTransition{
		{Scope: ScopeCollector, Collector: "rrc01", Degraded: false, LastSeen: back, At: t0.Add(8 * time.Minute)},
		{Scope: ScopePeer, Collector: "rrc01", PeerAS: 64500, Degraded: false, LastSeen: back, At: t0.Add(8 * time.Minute)},
	}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("recovery transitions:\n got %+v\nwant %+v", trs, want)
	}
}

func TestFeedWatchdogSnapshotAndCoverage(t *testing.T) {
	t0 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	w := NewFeedWatchdog(5 * time.Minute)

	empty := w.Snapshot(t0)
	if got := empty.Coverage(); got != 1 {
		t.Fatalf("empty watchdog coverage = %v, want 1", got)
	}

	w.Observe(feedRec("rrc00", 64500, t0))
	w.Observe(feedRec("rrc01", 64500, t0.Add(10*time.Minute)))
	end := t0.Add(12 * time.Minute)
	w.Evaluate(end)

	snap := w.Snapshot(end)
	if snap.SessionsKnown != 2 || snap.SessionsLive != 1 {
		t.Fatalf("sessions known/live = %d/%d, want 2/1", snap.SessionsKnown, snap.SessionsLive)
	}
	if snap.CollectorsKnown != 2 || snap.CollectorsLive != 1 {
		t.Fatalf("collectors known/live = %d/%d, want 2/1", snap.CollectorsKnown, snap.CollectorsLive)
	}
	if got := snap.Coverage(); got != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", got)
	}
	if !snap.Sessions[0].Degraded || snap.Sessions[0].Collector != "rrc00" {
		t.Fatalf("sessions[0] = %+v, want degraded rrc00", snap.Sessions[0])
	}
	if want := 12 * time.Minute; snap.Sessions[0].SilentFor != want {
		t.Fatalf("silent_for = %v, want %v", snap.Sessions[0].SilentFor, want)
	}
}

func TestFeedWatchdogCheckpointRoundTrip(t *testing.T) {
	t0 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	w := NewFeedWatchdog(5 * time.Minute)
	w.Observe(feedRec("rrc00", 64500, t0))
	w.Observe(feedRec("rrc00", 64501, t0.Add(time.Minute)))
	w.Observe(feedRec("rrc01", 64502, t0.Add(8*time.Minute)))
	end := t0.Add(9 * time.Minute)
	w.Evaluate(end)

	ckpt := w.Checkpoint()
	w2 := NewFeedWatchdog(5 * time.Minute)
	w2.Restore(ckpt)
	if !reflect.DeepEqual(w2.Checkpoint(), ckpt) {
		t.Fatal("checkpoint did not round-trip")
	}

	// The restored watchdog must continue with identical transitions.
	later := t0.Add(15 * time.Minute)
	if !reflect.DeepEqual(w.Evaluate(later), w2.Evaluate(later)) {
		t.Fatal("restored watchdog diverged from the original")
	}
	if !reflect.DeepEqual(w.Snapshot(later), w2.Snapshot(later)) {
		t.Fatal("restored snapshot diverged")
	}
}

// TestFeedWatchdogObserveSlots pins Observe's cached stamp slots: over
// records that switch session, peer and collector in every pattern, and
// across a Restore, the checkpoint must be what plain per-record map
// writes give, and refreshing the last session allocates nothing.
func TestFeedWatchdogObserveSlots(t *testing.T) {
	t0 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	sessions := map[SessionKey]time.Time{}
	collectors := map[string]time.Time{}
	w := NewFeedWatchdog(5 * time.Minute)
	colls := []string{"rrc00", "rrc01", "route-views2"}
	for i := 0; i < 500; i++ {
		coll, peer := colls[(i/7)%3], bgp.ASN(64500+(i/3)%4)
		at := t0.Add(time.Duration(i) * time.Second)
		w.Observe(feedRec(coll, peer, at))
		sessions[SessionKey{Collector: coll, PeerAS: peer}] = at
		collectors[coll] = at
		if i == 250 {
			r := NewFeedWatchdog(5 * time.Minute)
			r.Restore(w.Checkpoint())
			w = r
		}
	}
	got := w.Checkpoint()
	if len(got.Sessions) != len(sessions) || len(got.Collectors) != len(collectors) {
		t.Fatalf("%d sessions and %d collectors, want %d and %d", len(got.Sessions), len(got.Collectors), len(sessions), len(collectors))
	}
	for _, e := range got.Sessions {
		if want := sessions[SessionKey{Collector: e.Collector, PeerAS: e.PeerAS}]; !e.LastSeen.Equal(want) {
			t.Errorf("session %s/%v last seen %v, want %v", e.Collector, e.PeerAS, e.LastSeen, want)
		}
	}
	for _, e := range got.Collectors {
		if want := collectors[e.Collector]; !e.LastSeen.Equal(want) {
			t.Errorf("collector %s last seen %v, want %v", e.Collector, e.LastSeen, want)
		}
	}
	r := feedRec("rrc00", 64500, t0.Add(time.Hour))
	w.Observe(r)
	if n := testing.AllocsPerRun(100, func() { w.Observe(r) }); n != 0 {
		t.Errorf("refreshing the last session: %v allocations, want 0", n)
	}
}
