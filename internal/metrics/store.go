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

// StoreSnapshot is a point-in-time copy of StoreStats. Its tags declare
// each counter's /v1/stats key (json) and its /metrics series (metric:
// "name,type", with help as the HELP text); internal/server serves both
// from them.
type StoreSnapshot struct {
	Appends              int64 `json:"appends" metric:"kepler_store_appends_total,counter" help:"Events appended to the WAL."`
	AppendedBytes        int64 `json:"appended_bytes" metric:"kepler_store_appended_bytes_total,counter" help:"Framed payload bytes written to the WAL."`
	Flushes              int64 `json:"flushes" metric:"kepler_store_flushes_total,counter" help:"Buffered-writer flushes."`
	Compactions          int64 `json:"compactions" metric:"kepler_store_compactions_total,counter" help:"WAL compactions into snapshot segments."`
	RecoveredEvents      int64 `json:"recovered_events" metric:"kepler_store_recovered_events_total,counter" help:"Events replayed from the WAL on open."`
	TornTails            int64 `json:"torn_tails" metric:"kepler_store_torn_tails_total,counter" help:"Torn or corrupt WAL tails truncated on open."`
	TruncatedBytes       int64 `json:"truncated_bytes" metric:"kepler_store_truncated_bytes_total,counter" help:"Bytes discarded by tail truncation."`
	CheckpointSaves      int64 `json:"checkpoint_saves" metric:"kepler_store_checkpoint_saves_total,counter" help:"Engine checkpoints written beside the WAL."`
	CheckpointBytes      int64 `json:"checkpoint_bytes" metric:"kepler_store_checkpoint_bytes_total,counter" help:"Framed checkpoint bytes written."`
	CheckpointsDiscarded int64 `json:"checkpoints_discarded" metric:"kepler_store_checkpoints_discarded_total,counter" help:"Corrupt or rejected checkpoints skipped at recovery."`
	ResumeSeq            int64 `json:"resume_seq" metric:"kepler_store_resume_seq,gauge" help:"Event sequence this boot's engine resumed from (0 = full re-ingest)."`
	ResumeRecords        int64 `json:"resume_records" metric:"kepler_store_resume_records,gauge" help:"Record offset this boot's engine resumed from (0 = full re-ingest)."`
	SegmentsSealed       int64 `json:"segments_sealed" metric:"kepler_store_segments_sealed_total,counter" help:"History segments sealed at compaction."`
	IndexWrites          int64 `json:"index_writes" metric:"kepler_store_index_writes_total,counter" help:"Segment offset-index sidecars written."`
	IndexRebuilds        int64 `json:"index_rebuilds" metric:"kepler_store_index_rebuilds_total,counter" help:"Missing or corrupt segment indexes rebuilt by scan."`
	SegmentReads         int64 `json:"segment_reads" metric:"kepler_store_segment_reads_total,counter" help:"Page reads served from a history segment file."`
	ReadCacheHits        int64 `json:"read_cache_hits" metric:"kepler_store_read_cache_hits_total,counter" help:"History entries served from the decoded-frame cache."`
	ReadCacheMisses      int64 `json:"read_cache_misses" metric:"kepler_store_read_cache_misses_total,counter" help:"History entries decoded from disk on a cache miss."`
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

// CheckpointSnapshot is a point-in-time copy of CheckpointStats, tagged
// like StoreSnapshot. The two histograms carry no tags of their own:
// internal/server renders them.
type CheckpointSnapshot struct {
	Ingest       HistogramSnapshot `json:"-" metric:"-"`
	Save         HistogramSnapshot `json:"-" metric:"-"`
	Deferred     int64             `json:"deferred" metric:"kepler_checkpoint_deferred_total,counter" help:"Bin barriers at which a due checkpoint found the saver busy and stayed due."`
	Captures     int64             `json:"captures" metric:"kepler_checkpoint_captures_total,counter" help:"Engine checkpoints captured."`
	ColdRebuilds int64             `json:"cold_rebuilds" metric:"kepler_checkpoint_cold_rebuilds_total,counter" help:"Captures that re-encoded the whole state instead of what changed."`
	DirtyPaths   int64             `json:"last_dirty_paths" metric:"kepler_checkpoint_last_dirty_paths,gauge" help:"Path records the last capture re-encoded or dropped."`
	DirtyStable  int64             `json:"last_dirty_stable" metric:"kepler_checkpoint_last_dirty_stable,gauge" help:"Stable-baseline entries the last capture re-encoded or dropped."`
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
