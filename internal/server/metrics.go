package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"kepler/internal/metrics"
)

// writeHistogram emits one full Prometheus histogram metric family: the
// HELP/TYPE preamble followed by a single (optionally labeled) series.
func writeHistogram(b *strings.Builder, name, help, labels string, h metrics.HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	writeHistogramSeries(b, name, labels, h)
}

// writeHistogramSeries emits the _bucket/_sum/_count sample lines of one
// histogram series in the text exposition format: bucket counts are
// cumulative, the le values are bound durations in seconds, and a +Inf
// bucket always closes the series. labels, if non-empty, is a
// ready-formatted `k="v"` list prepended to each bucket's le pair.
func writeHistogramSeries(b *strings.Builder, name, labels string, h metrics.HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%s\"} %d\n",
			name, labels, sep, strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %g\n%s_count %d\n", name, h.Sum.Seconds(), name, h.Count)
		return
	}
	fmt.Fprintf(b, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.Sum.Seconds(), name, labels, h.Count)
}

// handleMetrics renders the daemon's atomic counters in the Prometheus
// text exposition format (version 0.0.4) so a standard scraper can watch a
// keplerd fleet without any client library: one hand-rolled writer over
// the same lock-free snapshots /v1/stats serves. Counters that track
// monotonically increasing totals are typed counter; point-in-time values
// (queue depths, open outages, pending campaigns) are gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	wr := func(name, typ, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}

	snap := s.snap.Load()
	ready := 0.0
	if s.ready.Load() {
		ready = 1
	}
	wr("kepler_ready", "gauge", "Whether ingestion has started.", ready)
	wr("kepler_open_outages", "gauge", "Ongoing outages as of the last closed bin.", float64(len(snap.Open)))
	wr("kepler_resolved_outages_total", "counter", "Completed outages recorded.", float64(snap.resolvedTotal()))
	wr("kepler_incidents_total", "counter", "Classified outage signals recorded.", float64(snap.incidentsTotal()))

	if s.opts.Ingest != nil {
		ing := s.opts.Ingest()
		wr("kepler_ingest_records_total", "counter", "MRT records consumed.", float64(ing.Records))
		wr("kepler_ingest_ops_total", "counter", "Route ops dispatched to shards.", float64(ing.Ops))
		wr("kepler_ingest_bins_total", "counter", "Bin barriers executed.", float64(ing.Bins))
		wr("kepler_ingest_records_per_second", "gauge", "Wall-clock ingestion rate.", ing.RecordsPerSec)
		wr("kepler_ingest_barrier_seconds_total", "counter", "Cumulative wall time inside bin barriers.", ing.BarrierTime.Seconds())
		depth := 0
		for _, d := range ing.QueueDepths {
			depth += d
		}
		wr("kepler_ingest_queue_depth", "gauge", "Dispatched-but-unprocessed op batches across shards.", float64(depth))
	}
	if s.opts.Service != nil {
		svc := s.opts.Service.Snapshot()
		wr("kepler_http_requests_total", "counter", "API requests served.", float64(svc.HTTPRequests))
		wr("kepler_http_errors_total", "counter", "Requests answered with a 4xx/5xx status.", float64(svc.HTTPErrors))
		wr("kepler_sse_connected_total", "counter", "SSE streams opened over the process lifetime.", float64(svc.SSEConnected))
		wr("kepler_sse_active", "gauge", "Currently connected SSE streams.", float64(svc.SSEActive))
		wr("kepler_events_published_total", "counter", "Events fanned out by the bus.", float64(svc.EventsPublished))
		wr("kepler_events_dropped_total", "counter", "Per-subscriber deliveries lost to full queues.", float64(svc.EventsDropped))
	}
	if s.opts.Store != nil {
		st := s.opts.Store()
		wr("kepler_store_appends_total", "counter", "Events appended to the WAL.", float64(st.Appends))
		wr("kepler_store_appended_bytes_total", "counter", "Framed payload bytes written to the WAL.", float64(st.AppendedBytes))
		wr("kepler_store_flushes_total", "counter", "Buffered-writer flushes.", float64(st.Flushes))
		wr("kepler_store_compactions_total", "counter", "WAL compactions into snapshot segments.", float64(st.Compactions))
		wr("kepler_store_recovered_events_total", "counter", "Events replayed from the WAL on open.", float64(st.RecoveredEvents))
		wr("kepler_store_torn_tails_total", "counter", "Torn or corrupt WAL tails truncated on open.", float64(st.TornTails))
		wr("kepler_store_truncated_bytes_total", "counter", "Bytes discarded by tail truncation.", float64(st.TruncatedBytes))
		wr("kepler_store_checkpoint_saves_total", "counter", "Engine checkpoints written beside the WAL.", float64(st.CheckpointSaves))
		wr("kepler_store_checkpoint_bytes_total", "counter", "Framed checkpoint bytes written.", float64(st.CheckpointBytes))
		wr("kepler_store_checkpoints_discarded_total", "counter", "Corrupt or rejected checkpoints skipped at recovery.", float64(st.CheckpointsDiscarded))
		wr("kepler_store_resume_seq", "gauge", "Event sequence this boot's engine resumed from (0 = full re-ingest).", float64(st.ResumeSeq))
		wr("kepler_store_resume_records", "gauge", "Record offset this boot's engine resumed from (0 = full re-ingest).", float64(st.ResumeRecords))
		wr("kepler_store_segments_sealed_total", "counter", "History segments sealed at compaction.", float64(st.SegmentsSealed))
		wr("kepler_store_index_writes_total", "counter", "Segment offset-index sidecars written.", float64(st.IndexWrites))
		wr("kepler_store_index_rebuilds_total", "counter", "Missing or corrupt segment indexes rebuilt by scan.", float64(st.IndexRebuilds))
		wr("kepler_store_segment_reads_total", "counter", "Page reads served from a history segment file.", float64(st.SegmentReads))
		wr("kepler_store_read_cache_hits_total", "counter", "History entries served from the decoded-frame cache.", float64(st.ReadCacheHits))
		wr("kepler_store_read_cache_misses_total", "counter", "History entries decoded from disk on a cache miss.", float64(st.ReadCacheMisses))
	}
	if s.opts.Checkpoint != nil {
		ck := s.opts.Checkpoint()
		writeHistogram(&b, "kepler_checkpoint_ingest_seconds",
			"Engine checkpoint wall time on the ingest goroutine (capture; at end of source also the wait for the save in flight).",
			"", ck.Ingest)
		writeHistogram(&b, "kepler_checkpoint_save_seconds",
			"Engine checkpoint wall time on the saver goroutine (encode, write, fsync).",
			"", ck.Save)
		wr("kepler_checkpoint_deferred_total", "counter", "Bin barriers at which a due checkpoint found the saver busy and stayed due.", float64(ck.Deferred))
		wr("kepler_checkpoint_captures_total", "counter", "Engine checkpoints captured.", float64(ck.Captures))
		wr("kepler_checkpoint_cold_rebuilds_total", "counter", "Captures that re-encoded the whole state instead of what changed.", float64(ck.ColdRebuilds))
		wr("kepler_checkpoint_last_dirty_paths", "gauge", "Path records the last capture re-encoded or dropped.", float64(ck.DirtyPaths))
		wr("kepler_checkpoint_last_dirty_stable", "gauge", "Stable-baseline entries the last capture re-encoded or dropped.", float64(ck.DirtyStable))
	}
	if s.opts.Probe != nil {
		pb := s.opts.Probe()
		wr("kepler_probe_campaigns_total", "counter", "Probe campaigns submitted.", float64(pb.Campaigns))
		wr("kepler_probe_targets_total", "counter", "Candidate targets across campaigns.", float64(pb.Targets))
		wr("kepler_probe_executed_total", "counter", "Probes run against the measurement backend.", float64(pb.Executed))
		wr("kepler_probe_cache_hits_total", "counter", "Targets answered from the verdict cache.", float64(pb.CacheHits))
		wr("kepler_probe_deduped_total", "counter", "Targets folded into an in-flight probe.", float64(pb.Deduped))
		wr("kepler_probe_denied_total", "counter", "Probes denied by the measurement budget.", float64(pb.Denied))
		wr("kepler_probe_collected_total", "counter", "Completed verdicts delivered to the engine.", float64(pb.Collected))
		wr("kepler_probe_promoted_total", "counter", "Pending confirmations promoted to located outages.", float64(pb.Promoted))
		wr("kepler_probe_refuted_total", "counter", "Confirmations contradicted by the data plane (suppressed false positives).", float64(pb.Refuted))
		wr("kepler_probe_unlocated_total", "counter", "Disambiguation verdicts that failed to pin an epicenter.", float64(pb.Unlocated))
		wr("kepler_probe_expired_total", "counter", "Pending confirmations that outlived their TTL.", float64(pb.Expired))
		wr("kepler_probe_pending", "gauge", "Currently parked confirmations.", float64(pb.Pending))
	}
	if s.opts.Bus != nil {
		bs := s.opts.Bus.Stats()
		wr("kepler_bus_subscribers", "gauge", "Registered event-bus subscribers.", float64(bs.Subscribers))
		if depths := s.opts.Bus.SubscriberDepths(); len(depths) > 0 {
			fmt.Fprint(&b, "# HELP kepler_sse_queue_depth Per-subscriber event queue occupancy.\n# TYPE kepler_sse_queue_depth gauge\n")
			for _, d := range depths {
				fmt.Fprintf(&b, "kepler_sse_queue_depth{subscriber=\"%d\"} %d\n", d.ID, d.Depth)
			}
			fmt.Fprint(&b, "# HELP kepler_sse_queue_dropped_total Per-subscriber deliveries lost to a full queue.\n# TYPE kepler_sse_queue_dropped_total counter\n")
			for _, d := range depths {
				fmt.Fprintf(&b, "kepler_sse_queue_dropped_total{subscriber=\"%d\"} %d\n", d.ID, d.Dropped)
			}
		}
	}
	if s.opts.Relay != nil {
		info := s.opts.Relay.Info()
		wr("kepler_relay_clients", "gauge", "Downstream SSE relay clients connected.", float64(info.Clients))
		wr("kepler_relay_deliveries_total", "counter", "Events enqueued to relay clients.", float64(info.Deliveries))
		wr("kepler_relay_dropped_total", "counter", "Relay deliveries lost to a full client queue.", float64(info.Dropped))
		wr("kepler_relay_shed_total", "counter", "Relay deliveries withheld by the aggregate queue budget.", float64(info.Shed))
		wr("kepler_relay_joins_total", "counter", "Relay clients admitted.", float64(info.Joins))
		wr("kepler_relay_leaves_total", "counter", "Relay clients departed.", float64(info.Leaves))
		wr("kepler_relay_upstream_depth", "gauge", "Occupancy of the relay's single upstream bus queue.", float64(info.UpstreamDepth))
		wr("kepler_relay_upstream_dropped_total", "counter", "Events the relay itself lost upstream (relay stalled).", float64(info.UpstreamDropped))
	}
	if snap.Feeds != nil {
		f := snap.Feeds
		wr("kepler_feed_coverage_ratio", "gauge", "Live peer sessions over known peer sessions (stream time).", f.Coverage())
		wr("kepler_feed_collectors_known", "gauge", "Collectors ever observed by the feed watchdog.", float64(f.CollectorsKnown))
		wr("kepler_feed_collectors_live", "gauge", "Collectors within the silence threshold.", float64(f.CollectorsLive))
		wr("kepler_feed_sessions_known", "gauge", "Peer sessions ever observed by the feed watchdog.", float64(f.SessionsKnown))
		wr("kepler_feed_sessions_live", "gauge", "Peer sessions within the silence threshold.", float64(f.SessionsLive))
	}
	if s.opts.Feed != nil {
		fs := s.opts.Feed.Snapshot()
		wr("kepler_feed_degraded_total", "counter", "Feed degraded transitions published.", float64(fs.Degraded))
		wr("kepler_feed_recovered_total", "counter", "Feed recovered transitions published.", float64(fs.Recovered))
	}
	if s.opts.HTTP != nil {
		hs := s.opts.HTTP.Snapshot()
		if len(hs.Endpoints) > 0 {
			name := "kepler_http_request_seconds"
			fmt.Fprintf(&b, "# HELP %s API request latency by route pattern (SSE streams record connection lifetime).\n# TYPE %s histogram\n", name, name)
			for _, e := range hs.Endpoints {
				writeHistogramSeries(&b, name, fmt.Sprintf(`endpoint=%q`, e.Endpoint), e.Latency)
			}
		}
		writeHistogram(&b, "kepler_sse_delivery_lag_seconds",
			"Bus publication to completed client write, live SSE deliveries only.",
			"", hs.SSELag)
	}
	if s.opts.BinStage != nil {
		bc := s.opts.BinStage()
		writeHistogram(&b, "kepler_bin_close_seconds",
			"End-to-end bin-close wall time (barrier wait through hook dispatch).",
			"", bc.Total)
		name := "kepler_bin_close_stage_seconds"
		fmt.Fprintf(&b, "# HELP %s Bin-close wall time by pipeline stage.\n# TYPE %s histogram\n", name, name)
		for i, stage := range metrics.BinStageNames {
			writeHistogramSeries(&b, name, fmt.Sprintf(`stage=%q`, stage), bc.Stages[i])
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
