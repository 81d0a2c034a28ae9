package live

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/communities"
	"kepler/internal/core"
	"kepler/internal/mrt"
	"kepler/internal/topology"
)

var base = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

func mkRecs(n int, gap time.Duration) []*mrt.Record {
	recs := make([]*mrt.Record, n)
	for i := range recs {
		recs[i] = &mrt.Record{Time: base.Add(time.Duration(i) * gap), Kind: mrt.KindUpdate, Collector: "rrc00"}
	}
	return recs
}

func TestAdaptDrainsAndCancels(t *testing.T) {
	src := Adapt(bgpstream.NewSliceSource(mkRecs(3, time.Second)))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := src.Next(ctx); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := src.Next(ctx); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Adapt(bgpstream.NewSliceSource(mkRecs(1, 0))).Next(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

// TestReplayerPacing drives the replayer with a fake clock: records one
// stream-minute apart at 60x must be scheduled one wall-second apart.
func TestReplayerPacing(t *testing.T) {
	recs := mkRecs(4, time.Minute)
	r := NewReplayer(bgpstream.NewSliceSource(recs), 60)
	wall := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var slept []time.Duration
	r.now = func() time.Time { return wall }
	r.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		wall = wall.Add(d)
		return nil
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		rec, err := r.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Time.Equal(recs[i].Time) {
			t.Fatalf("record %d out of order", i)
		}
	}
	want := []time.Duration{time.Second, time.Second, time.Second}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

// TestReplayerLateNoSleep: when the consumer falls behind (wall clock past
// the due instant), the replayer must not sleep at all.
func TestReplayerLateNoSleep(t *testing.T) {
	recs := mkRecs(3, time.Second)
	r := NewReplayer(bgpstream.NewSliceSource(recs), 1)
	wall := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r.now = func() time.Time {
		wall = wall.Add(time.Minute) // each observation is already late
		return wall
	}
	r.sleep = func(context.Context, time.Duration) error {
		t.Fatal("slept while behind schedule")
		return nil
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := r.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplayerMaxSpeed(t *testing.T) {
	recs := mkRecs(1000, time.Hour) // would take forever paced
	r := NewReplayer(bgpstream.NewSliceSource(recs), 0)
	r.sleep = func(context.Context, time.Duration) error {
		t.Fatal("max-speed replay slept")
		return nil
	}
	ctx := context.Background()
	n := 0
	for {
		_, err := r.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("drained %d records", n)
	}
}

// TestReplayerCancelDuringSleep: cancellation must abort a pending pace
// sleep promptly rather than waiting it out.
func TestReplayerCancelDuringSleep(t *testing.T) {
	recs := mkRecs(2, 24*time.Hour) // 1-day gap at 1x: sleeps ~forever
	r := NewReplayer(bgpstream.NewSliceSource(recs), 1)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := r.Next(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Next(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not abort the pace sleep")
	}
}

// soakWorld generates a deliberately tiny world so synthetic rendering
// stays fast in tests.
func soakWorld(t *testing.T) *topology.World {
	t.Helper()
	cfg := topology.Config{
		Seed: 5, Tier1s: 2, Tier2s: 8, Contents: 4, Stubs: 20,
		Facilities: 10, IXPs: 4,
		CommunityFraction: 0.9, DocumentFraction: 0.9,
		CityGranularityFraction: 0.4, RemotePeerFraction: 0.2,
		SiblingFraction: 0.05, Collectors: 2, VantagePerCollector: 4,
	}
	w, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSyntheticContinuity renders two short windows and checks the stream
// is time-ordered, spans both cycles without gaps in coverage, and stops at
// the cycle bound.
func TestSyntheticContinuity(t *testing.T) {
	w := soakWorld(t)
	window := 24 * time.Hour
	syn := NewSynthetic(w, SyntheticConfig{
		Seed: 9, Window: window, Cycles: 2,
		FacilityOutages: 1, LinkOutages: 1, IXPOutages: 0, ASOutages: 0,
	})
	ctx := context.Background()
	var prev time.Time
	var first, last time.Time
	n := 0
	for {
		rec, err := syn.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Time.Before(prev) {
			t.Fatalf("stream went backwards at record %d: %v < %v", n, rec.Time, prev)
		}
		prev = rec.Time
		if first.IsZero() {
			first = rec.Time
		}
		last = rec.Time
		n++
	}
	if n == 0 {
		t.Fatal("no records rendered")
	}
	if span := last.Sub(first); span <= window {
		t.Fatalf("stream span %v never entered the second window", span)
	}
	if _, err := syn.Next(ctx); err != io.EOF {
		t.Fatalf("post-EOF err = %v", err)
	}
}

// TestSyntheticFeedsEngine soaks a real engine from the generator: records
// must ingest cleanly and close bins.
func TestSyntheticFeedsEngine(t *testing.T) {
	w := soakWorld(t)
	syn := NewSynthetic(w, SyntheticConfig{Seed: 9, Window: 24 * time.Hour, Cycles: 1})
	// An empty dictionary still ingests and bins (nothing tags).
	eng := core.NewEngine(core.DefaultConfig(), communities.New(), w.Map, nil)
	res, err := Pump(context.Background(), syn, eng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 {
		t.Fatal("pump consumed nothing")
	}
	if stats := eng.Stats(); stats.Records != int64(res.Records) {
		t.Errorf("engine saw %d records, pump counted %d", stats.Records, res.Records)
	}
}

// TestPumpCancel stops a pump mid-stream and checks it did not flush:
// stopping is not an end of stream, so the bin holding the consumed
// records is still open when Pump returns.
func TestPumpCancel(t *testing.T) {
	recs := mkRecs(100, time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	src := sourceFunc(func(c context.Context) (*mrt.Record, error) {
		if err := c.Err(); err != nil {
			return nil, err
		}
		if n == 50 {
			cancel()
			return nil, c.Err()
		}
		r := recs[n]
		n++
		return r, nil
	})
	eng := core.New(core.DefaultConfig(), communities.New(), nil, nil) // closes every bin, idle or not
	defer eng.Close()
	bins := 0
	eng.SetHooks(core.Hooks{BinClosed: func(time.Time) { bins++ }})
	res, err := Pump(ctx, src, eng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if res.Records != 50 || !res.Last.Equal(recs[49].Time) {
		t.Fatalf("result = %+v", res)
	}
	if bins != 0 {
		t.Fatalf("a cancelled pump closed %d bins: it flushed the engine", bins)
	}
	eng.Flush(res.Last)
	if bins != 1 {
		t.Fatalf("flush after the pump closed %d bins, want the one the records fell in", bins)
	}
}

type sourceFunc func(context.Context) (*mrt.Record, error)

func (f sourceFunc) Next(ctx context.Context) (*mrt.Record, error) { return f(ctx) }

// TestSyntheticCancelMidRender pins the prompt-shutdown fix: cancellation
// must abort the CPU-heavy window render itself, not just be noticed at the
// next window boundary.
func TestSyntheticCancelMidRender(t *testing.T) {
	w := soakWorld(t)
	syn := NewSynthetic(w, SyntheticConfig{
		Seed: 9, Window: 7 * 24 * time.Hour, // the default soak window: a heavy render
		FacilityOutages: 2, LinkOutages: 3,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // SIGTERM arrived before (or during) the first render
	if _, err := syn.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next under cancelled ctx = %v, want context.Canceled", err)
	}

	// The generator survives the abort: a live context picks up rendering.
	rec, err := syn.Next(context.Background())
	if err != nil || rec == nil {
		t.Fatalf("render after aborted render: %v", err)
	}
}
