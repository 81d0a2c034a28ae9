package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// IngestStats collects low-overhead runtime counters from the ingestion
// engine: records consumed, route ops fanned out to the path-state shard,
// bins closed, and cumulative time the engine spent closing bins. All
// counters are safe for concurrent update.
type IngestStats struct {
	Records      atomic.Int64 // MRT records consumed
	Ops          atomic.Int64 // route ops applied
	Bins         atomic.Int64 // bins closed (barriers executed)
	BarrierNanos atomic.Int64 // cumulative wall time inside bin closes

	startOnce sync.Once
	start     atomic.Int64 // wall-clock start, unix nanos
}

// Begin marks the ingestion start for rate computation. Idempotent; the
// engine calls it on the first record. The wall clock is the point:
// records/sec measures this host's ingest throughput, not stream time,
// so it never feeds detection (metrics is outside keplervet's walltime
// scope by construction).
func (s *IngestStats) Begin() {
	s.startOnce.Do(func() { s.start.Store(time.Now().UnixNano()) })
}

// IngestSnapshot is a point-in-time view of the engine's ingestion health,
// tagged like StoreSnapshot. The durations carry no tags: internal/server
// renders them in seconds.
type IngestSnapshot struct {
	Records int64 `json:"records" metric:"kepler_ingest_records_total,counter" help:"MRT records consumed."`
	Ops     int64 `json:"ops" metric:"kepler_ingest_ops_total,counter" help:"Route ops dispatched to shards."`
	Bins    int64 `json:"bins" metric:"kepler_ingest_bins_total,counter" help:"Bin barriers executed."`
	// RecordsPerSec is the wall-clock ingestion rate since Begin.
	RecordsPerSec float64 `json:"records_per_sec" metric:"kepler_ingest_records_per_second,gauge" help:"Wall-clock ingestion rate."`
	// BarrierTime is the cumulative wall time spent closing bins.
	BarrierTime time.Duration `json:"-" metric:"-"`
	// BinLag is the mean wall time per closed bin: how long ingest stalls
	// while the investigator closes one.
	BinLag time.Duration `json:"-" metric:"-"`
}

// Snapshot computes current rates.
func (s *IngestStats) Snapshot() IngestSnapshot {
	snap := IngestSnapshot{
		Records:     s.Records.Load(),
		Ops:         s.Ops.Load(),
		Bins:        s.Bins.Load(),
		BarrierTime: time.Duration(s.BarrierNanos.Load()),
	}
	if start := s.start.Load(); start > 0 {
		elapsed := time.Since(time.Unix(0, start)).Seconds()
		if elapsed > 0 {
			snap.RecordsPerSec = float64(snap.Records) / elapsed
		}
	}
	if snap.Bins > 0 {
		snap.BinLag = snap.BarrierTime / time.Duration(snap.Bins)
	}
	return snap
}

// String renders the snapshot as a single log-friendly line.
func (s IngestSnapshot) String() string {
	return fmt.Sprintf("records=%d ops=%d bins=%d rate=%.0f rec/s barrier=%s binlag=%s",
		s.Records, s.Ops, s.Bins, s.RecordsPerSec, s.BarrierTime.Round(time.Microsecond),
		s.BinLag.Round(time.Microsecond))
}
