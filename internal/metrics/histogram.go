package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// DurationBounds is the fixed bucket layout shared by every duration
// histogram: upper bounds from 100µs to 10s in a 1-2.5-5 progression, plus
// an implicit +Inf bucket. Fixed bounds keep observation allocation-free
// and make the Prometheus exposition stable across restarts.
var DurationBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// numBuckets counts the finite buckets; the +Inf bucket is Counts[numBuckets].
const numBuckets = len(DurationBounds)

// Histogram is a fixed-bucket duration histogram safe for concurrent
// observation: one writer per stage on the ingestion goroutine, any number
// of concurrent readers from /v1/stats and /metrics. Zero value is ready.
type Histogram struct {
	counts [numBuckets + 1]atomic.Int64
	sum    atomic.Int64 // cumulative nanoseconds
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < numBuckets && d > DurationBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts holds
// per-bucket (non-cumulative) observation counts; Counts[len(Bounds)] is
// the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []time.Duration
	Counts []int64
	Sum    time.Duration
	Count  int64
}

// Snapshot copies the current state. Count is the sum of the loaded
// bucket counts, so it always equals the +Inf bucket of the cumulative
// exposition. The loads are not mutually atomic: concurrent observations
// may skew Sum against Counts by the observations in flight, which is fine
// for monitoring output.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: DurationBounds[:],
		Counts: make([]int64, numBuckets+1),
		Sum:    time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Mean returns the average observed duration, zero when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts,
// attributing every observation in a bucket to its upper bound — the same
// conservative estimate a Prometheus histogram_quantile gives. Returns the
// last finite bound for observations in the +Inf bucket and zero when the
// histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Bin-close stages. Each bin close is decomposed into monotonic spans: the
// promotions due at the bin's end, collecting asynchronous probe verdicts,
// the Section 4.3 signal classification, the stable-baseline cleanup, and
// the lifecycle hooks (which a store-backed daemon uses for its synchronous
// WAL flush).
const (
	StageBarrier  = iota // promotions due at the bin's end
	StageCollect         // async probe verdict collection + return application
	StageClassify        // signal grouping, classification, disambiguation
	StageFinish          // stable-baseline cleanup
	StageHooks           // BinClosed hooks: event publication, store flush
	NumBinStages
)

// BinStageNames maps stage indexes to their metric label values.
var BinStageNames = [NumBinStages]string{
	"barrier", "probe_collect", "classify", "finish", "hooks",
}

// BinSpans carries the measured spans of one bin close.
type BinSpans struct {
	// End is the stream time of the closed bin.
	End time.Time
	// Total is the wall time of the whole close (>= sum of stages: the
	// residual is un-instrumented glue).
	Total time.Duration
	// Stage holds the per-stage spans, indexed by the Stage constants.
	Stage [NumBinStages]time.Duration
}

// String renders the spans as a single log-friendly line.
func (b BinSpans) String() string {
	out := fmt.Sprintf("bin=%s total=%s", b.End.Format(time.RFC3339), b.Total.Round(time.Microsecond))
	for i, d := range b.Stage {
		out += fmt.Sprintf(" %s=%s", BinStageNames[i], d.Round(time.Microsecond))
	}
	return out
}

// BinStageStats aggregates per-stage bin-close latency histograms. Record
// is called once per bin close on the ingestion goroutine; snapshots are
// read concurrently by the HTTP layer. The zero value is ready.
type BinStageStats struct {
	// Total observes whole-close durations; Stages the per-stage spans.
	Total  Histogram
	Stages [NumBinStages]Histogram

	// SlowBinThreshold, when positive, invokes OnSlowBin for any bin whose
	// total close time meets or exceeds it. Set both before ingestion
	// starts; OnSlowBin runs on the ingestion goroutine and must be fast.
	//keplervet:ignore atomicstats write-once config, not a counter: set before ingestion starts, immutable afterwards
	SlowBinThreshold time.Duration
	OnSlowBin        func(BinSpans)
}

// Record folds one bin close into the histograms and fires the slow-bin
// callback when the total crosses the threshold.
func (s *BinStageStats) Record(spans BinSpans) {
	s.Total.Observe(spans.Total)
	for i := range spans.Stage {
		s.Stages[i].Observe(spans.Stage[i])
	}
	//keplervet:ignore atomicstats SlowBinThreshold is write-once config, immutable once ingestion starts
	if s.SlowBinThreshold > 0 && spans.Total >= s.SlowBinThreshold && s.OnSlowBin != nil {
		s.OnSlowBin(spans)
	}
}

// BinStageSnapshot is a point-in-time view of every stage histogram.
type BinStageSnapshot struct {
	Total  HistogramSnapshot
	Stages [NumBinStages]HistogramSnapshot
}

// Snapshot copies all histograms.
func (s *BinStageStats) Snapshot() BinStageSnapshot {
	snap := BinStageSnapshot{Total: s.Total.Snapshot()}
	for i := range s.Stages {
		snap.Stages[i] = s.Stages[i].Snapshot()
	}
	return snap
}
