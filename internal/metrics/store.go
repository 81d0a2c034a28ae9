package metrics

import (
	"fmt"
	"sync/atomic"
)

// StoreStats collects the durable outage-history layer's counters
// (internal/store): WAL append volume, flush/compaction activity, and what
// recovery found on boot. All fields are atomics — appends happen on the
// ingestion goroutine while /v1/stats reads concurrently.
type StoreStats struct {
	Appends       atomic.Int64 // events appended to the WAL
	AppendedBytes atomic.Int64 // framed payload bytes written
	Flushes       atomic.Int64 // buffered-writer flushes (one per bin close)
	Compactions   atomic.Int64 // WAL compactions into snapshot segments

	RecoveredEvents atomic.Int64 // events replayed from the WAL on open
	TornTails       atomic.Int64 // torn/corrupt WAL tails truncated on open
	TruncatedBytes  atomic.Int64 // bytes discarded by tail truncation

	CheckpointSaves      atomic.Int64 // engine checkpoints written
	CheckpointBytes      atomic.Int64 // framed checkpoint bytes written
	CheckpointsDiscarded atomic.Int64 // corrupt/rejected checkpoints skipped at recovery
	// ResumeSeq and ResumeRecords are recovery gauges: the event sequence
	// and record offset the engine resumed from. Zero means the boot
	// re-ingested from record zero — the pre-checkpoint recovery path.
	// Their point is the bounded-recovery proof: ResumeRecords tracks the
	// checkpoint cadence, so records re-ingested after a restart stay
	// bounded by one checkpoint interval instead of the stream length.
	ResumeSeq     atomic.Int64
	ResumeRecords atomic.Int64

	// History-segment serving counters: sealed segments and their offset
	// indexes, page reads that went to disk, and the decoded-entry LRU.
	// ReadCacheHits/Misses are the bounded-memory proof of the read path:
	// resident history is the cache, not the history.
	SegmentsSealed  atomic.Int64 // history segments written at compaction
	IndexWrites     atomic.Int64 // offset-index sidecars written
	IndexRebuilds   atomic.Int64 // missing/corrupt indexes rebuilt by scan on open
	SegmentReads    atomic.Int64 // page reads served from a segment file
	ReadCacheHits   atomic.Int64 // entries served from the decoded-frame LRU
	ReadCacheMisses atomic.Int64 // entries that had to be decoded from disk
}

// StoreSnapshot is a point-in-time copy of StoreStats.
type StoreSnapshot struct {
	Appends              int64
	AppendedBytes        int64
	Flushes              int64
	Compactions          int64
	RecoveredEvents      int64
	TornTails            int64
	TruncatedBytes       int64
	CheckpointSaves      int64
	CheckpointBytes      int64
	CheckpointsDiscarded int64
	ResumeSeq            int64
	ResumeRecords        int64
	SegmentsSealed       int64
	IndexWrites          int64
	IndexRebuilds        int64
	SegmentReads         int64
	ReadCacheHits        int64
	ReadCacheMisses      int64
}

// Snapshot copies the current counter values.
func (s *StoreStats) Snapshot() StoreSnapshot {
	return StoreSnapshot{
		Appends:              s.Appends.Load(),
		AppendedBytes:        s.AppendedBytes.Load(),
		Flushes:              s.Flushes.Load(),
		Compactions:          s.Compactions.Load(),
		RecoveredEvents:      s.RecoveredEvents.Load(),
		TornTails:            s.TornTails.Load(),
		TruncatedBytes:       s.TruncatedBytes.Load(),
		CheckpointSaves:      s.CheckpointSaves.Load(),
		CheckpointBytes:      s.CheckpointBytes.Load(),
		CheckpointsDiscarded: s.CheckpointsDiscarded.Load(),
		ResumeSeq:            s.ResumeSeq.Load(),
		ResumeRecords:        s.ResumeRecords.Load(),
		SegmentsSealed:       s.SegmentsSealed.Load(),
		IndexWrites:          s.IndexWrites.Load(),
		IndexRebuilds:        s.IndexRebuilds.Load(),
		SegmentReads:         s.SegmentReads.Load(),
		ReadCacheHits:        s.ReadCacheHits.Load(),
		ReadCacheMisses:      s.ReadCacheMisses.Load(),
	}
}

// String renders the snapshot as a single log-friendly line.
func (s StoreSnapshot) String() string {
	return fmt.Sprintf("appends=%d bytes=%d flushes=%d compactions=%d recovered=%d torn=%d ckpts=%d resume_records=%d segments=%d cache_hits=%d cache_misses=%d",
		s.Appends, s.AppendedBytes, s.Flushes, s.Compactions,
		s.RecoveredEvents, s.TornTails, s.CheckpointSaves, s.ResumeRecords,
		s.SegmentsSealed, s.ReadCacheHits, s.ReadCacheMisses)
}

// CheckpointStats answers "is checkpointing the bottleneck, and was that
// capture warm?" for a running daemon. The engine maintains the capture
// counters (core.Engine.SetCheckpointStats); the checkpoint saver
// (store.CheckpointSaver) observes the rest: Ingest is what a checkpoint
// cost the ingest goroutine — the capture, plus the wait for the save in
// flight once the source has ended — Save what its own goroutine then spent
// encoding, writing and fsyncing it.
type CheckpointStats struct {
	Ingest       Histogram
	Save         Histogram
	Deferred     atomic.Int64 // barriers at which a due checkpoint found the saver busy
	Captures     atomic.Int64 // checkpoints captured
	ColdRebuilds atomic.Int64 // captures that re-encoded the whole state
	DirtyPaths   atomic.Int64 // path records the last capture re-encoded or dropped
	DirtyStable  atomic.Int64 // stable-baseline entries the last capture re-encoded or dropped
}

// CheckpointSnapshot is a point-in-time copy of CheckpointStats.
type CheckpointSnapshot struct {
	Ingest       HistogramSnapshot
	Save         HistogramSnapshot
	Deferred     int64
	Captures     int64
	ColdRebuilds int64
	DirtyPaths   int64
	DirtyStable  int64
}

// Snapshot copies the current values.
func (s *CheckpointStats) Snapshot() CheckpointSnapshot {
	return CheckpointSnapshot{
		Ingest:       s.Ingest.Snapshot(),
		Save:         s.Save.Snapshot(),
		Deferred:     s.Deferred.Load(),
		Captures:     s.Captures.Load(),
		ColdRebuilds: s.ColdRebuilds.Load(),
		DirtyPaths:   s.DirtyPaths.Load(),
		DirtyStable:  s.DirtyStable.Load(),
	}
}
