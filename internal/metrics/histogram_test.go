package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketing places observations into the exact buckets the
// fixed bounds define, including the clamp at zero and the +Inf bucket.
func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)           // clamps to 0 -> first bucket
	h.Observe(50 * time.Microsecond)  // first bucket
	h.Observe(100 * time.Microsecond) // still first bucket (le bound)
	h.Observe(101 * time.Microsecond) // second bucket
	h.Observe(3 * time.Millisecond)   // le=5ms bucket
	h.Observe(time.Minute)            // +Inf bucket
	snap := h.Snapshot()

	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	if got := snap.Counts[0]; got != 3 {
		t.Errorf("bucket le=100µs = %d, want 3", got)
	}
	if got := snap.Counts[1]; got != 1 {
		t.Errorf("bucket le=250µs = %d, want 1", got)
	}
	var fiveMs int
	for i, b := range snap.Bounds {
		if b == 5*time.Millisecond {
			fiveMs = i
		}
	}
	if got := snap.Counts[fiveMs]; got != 1 {
		t.Errorf("bucket le=5ms = %d, want 1", got)
	}
	if got := snap.Counts[len(snap.Counts)-1]; got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	// Negative observations clamp, so the sum excludes the -1s.
	want := 50*time.Microsecond + 100*time.Microsecond + 101*time.Microsecond +
		3*time.Millisecond + time.Minute
	if snap.Sum != want {
		t.Errorf("sum = %v, want %v", snap.Sum, want)
	}
}

// TestHistogramQuantile checks the upper-bound quantile estimate.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
	for i := 0; i < 90; i++ {
		h.Observe(200 * time.Microsecond) // le=250µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(400 * time.Millisecond) // le=500ms
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); q != 250*time.Microsecond {
		t.Errorf("p50 = %v, want 250µs", q)
	}
	if q := snap.Quantile(0.99); q != 500*time.Millisecond {
		t.Errorf("p99 = %v, want 500ms", q)
	}
	if m := snap.Mean(); m <= 0 {
		t.Errorf("mean = %v, want > 0", m)
	}
}

// TestHistogramQuantileEdgeCases pins the two boundary behaviors the
// quantile estimate promises: an empty snapshot reports zero (not the first
// bound), and observations beyond the largest bound — the +Inf bucket —
// report the last finite bound rather than infinity, for every q.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	snap := empty.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := snap.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if got := snap.Mean(); got != 0 {
		t.Errorf("empty Mean() = %v, want 0", got)
	}

	last := DurationBounds[len(DurationBounds)-1]
	var inf Histogram
	inf.Observe(time.Minute) // beyond the 10s top bound
	inf.Observe(time.Hour)
	isnap := inf.Snapshot()
	if got := isnap.Counts[len(isnap.Counts)-1]; got != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", got)
	}
	for _, q := range []float64{0.01, 0.5, 1.0} {
		if got := isnap.Quantile(q); got != last {
			t.Errorf("all-inf Quantile(%v) = %v, want last bound %v", q, got, last)
		}
	}

	// Mixed: one finite, one +Inf — p50 lands on the finite bucket's bound,
	// p100 clamps to the last finite bound.
	var mixed Histogram
	mixed.Observe(time.Millisecond)
	mixed.Observe(time.Minute)
	msnap := mixed.Snapshot()
	if got := msnap.Quantile(0.5); got != time.Millisecond {
		t.Errorf("mixed p50 = %v, want 1ms", got)
	}
	if got := msnap.Quantile(1.0); got != last {
		t.Errorf("mixed p100 = %v, want %v", got, last)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines with
// concurrent snapshots — the ingest-writer / HTTP-reader pattern. Run with
// -race.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				if snap.Count < 0 || snap.Sum < 0 {
					t.Errorf("torn snapshot: %+v", snap)
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", snap.Count, writers*perWriter)
	}
	var total int64
	for _, c := range snap.Counts {
		total += c
	}
	if total != snap.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, snap.Count)
	}
}

// TestBinStageStatsRecord checks per-stage aggregation and the slow-bin
// callback threshold semantics.
func TestBinStageStatsRecord(t *testing.T) {
	var s BinStageStats
	var slow []BinSpans
	s.SlowBinThreshold = 10 * time.Millisecond
	s.OnSlowBin = func(b BinSpans) { slow = append(slow, b) }

	fast := BinSpans{End: time.Unix(60, 0), Total: 2 * time.Millisecond}
	fast.Stage[StageBarrier] = time.Millisecond
	fast.Stage[StageClassify] = 500 * time.Microsecond
	s.Record(fast)

	slowBin := BinSpans{End: time.Unix(120, 0), Total: 50 * time.Millisecond}
	slowBin.Stage[StageHooks] = 40 * time.Millisecond
	s.Record(slowBin)

	if len(slow) != 1 || !slow[0].End.Equal(time.Unix(120, 0)) {
		t.Fatalf("slow-bin callback fired %d times (%v), want once for the 50ms bin", len(slow), slow)
	}
	snap := s.Snapshot()
	if snap.Total.Count != 2 {
		t.Errorf("total count = %d, want 2", snap.Total.Count)
	}
	if got := snap.Stages[StageBarrier].Sum; got != time.Millisecond {
		t.Errorf("barrier sum = %v, want 1ms", got)
	}
	if got := snap.Stages[StageHooks].Sum; got != 40*time.Millisecond {
		t.Errorf("hooks sum = %v, want 40ms", got)
	}
	// Threshold is inclusive.
	exact := BinSpans{End: time.Unix(180, 0), Total: 10 * time.Millisecond}
	s.Record(exact)
	if len(slow) != 2 {
		t.Errorf("inclusive threshold: callback fired %d times, want 2", len(slow))
	}
	if line := slowBin.String(); !strings.Contains(line, "hooks=40ms") || !strings.Contains(line, "total=50ms") {
		t.Errorf("render = %q", line)
	}
}

// TestBinStageNamesComplete pins the stage-name table to the stage count so
// adding a stage without naming it fails loudly (the names are Prometheus
// label values).
func TestBinStageNamesComplete(t *testing.T) {
	for i, name := range BinStageNames {
		if name == "" {
			t.Errorf("stage %d has no name", i)
		}
	}
	if len(BinStageNames) != NumBinStages {
		t.Errorf("len(BinStageNames) = %d, want %d", len(BinStageNames), NumBinStages)
	}
}

// TestHistogramSnapshotCountMatchesBuckets snapshots while another
// goroutine observes: every snapshot's Count must equal the sum of its
// bucket counts, which is what Prometheus requires of _count against the
// +Inf bucket.
func TestHistogramSnapshotCountMatchesBuckets(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50000; i++ {
			h.Observe(time.Duration(i%4000) * time.Millisecond)
		}
	}()
	snaps, skewed := 0, 0
	for finished := false; !finished; snaps++ {
		select {
		case <-done:
			finished = true
		default:
		}
		s := h.Snapshot()
		var sum int64
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.Count {
			skewed++
		}
	}
	if skewed > 0 {
		t.Errorf("%d of %d snapshots had Count != sum of bucket counts", skewed, snaps)
	}
}
