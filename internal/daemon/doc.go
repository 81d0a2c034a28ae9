// Package daemon is Kepler as a long-lived service, what cmd/keplerd runs:
// it ingests a streamed record source through the sharded detection engine
// and serves detection results over an HTTP JSON API plus a
// Server-Sent-Events stream while ingestion is running. This is the daemon
// shape of the paper's deployment — a continuously-operating monitor rather
// than a batch report. Config has one field per keplerd flag, named after
// it; this doc speaks in flags.
//
// Two sources are available:
//
//   - -archive replays an MRT-lite file (from cmd/topogen) through a
//     rate-controlled replayer: -speed 1 re-creates the original arrival
//     timing, -speed 60 compresses an archive minute into a second, and
//     -speed 0 (the default) replays as fast as the hardware allows. The
//     file is decoded a few batches ahead on a goroutine of its own
//     (live.ReadAhead). After the archive drains, the daemon keeps serving
//     its results until signalled.
//   - -synthetic renders rolling scenario windows over the generated world
//     forever — the soak-test mode; no file needed.
//
// The colocation map and community dictionary are reconstructed from the
// same world seed the archive was generated with, exactly as cmd/kepler
// does.
//
// The history the API serves — resolved outages, incidents, provenance
// traces — lives in one internal/store in every mode: the bus sink appends
// every lifecycle event to it, and each published snapshot pages it. Without
// -data-dir that store keeps the history in memory and writes nothing.
//
// With -data-dir the daemon keeps its history durable: every lifecycle event
// is appended to a checksummed write-ahead log (internal/store), compacted
// periodically into snapshot segments, and the engine's full detection state
// is checkpointed beside it, at bin closes at least -checkpoint-interval of
// stream time apart. On boot the directory is recovered — resolved outages
// and incidents are served immediately, SSE sequence numbers continue where
// they left off (so Last-Event-ID resume works across restarts), the engine
// restores the newest valid checkpoint (corrupt or incompatible checkpoints
// fall back to the older generation, then to record zero), and the source is
// re-ingested from the checkpoint's record cursor with already-persisted
// events suppressed — a restart mid-archive is equivalent to one
// uninterrupted run, and the catch-up cost is bounded by one checkpoint
// interval plus one checkpoint save rather than the stream length
// (store.resume_records in /v1/stats reports the resume offset). Ingest
// never waits for the disk over a checkpoint. A bin close captures one —
// what changed since the previous capture; the engine keeps its encoded
// sections warm between bin barriers — and a saver goroutine encodes, writes
// and fsyncs it while ingest runs on, one save at a time. A checkpoint that
// comes due while the saver is busy stays due and is taken at the first
// later bin close that finds it idle, from that bin close's state (replaying
// an archive at maximum speed therefore writes fewer checkpoints than a live
// feed, which writes every one); once the source has ended a due checkpoint
// waits for the saver instead, so the last one is on disk before "source
// drained" is logged, and shutdown waits for the save in flight. /v1/stats
// and /metrics report what each checkpoint cost the ingest goroutine, what
// it cost the saver, how many were deferred and how much the last capture
// had to re-encode. A failed checkpoint is retried at the next bin close. If
// a WAL append fails the store stops writing and serves on from memory —
// the persisted prefix from disk, everything after it from its in-memory
// tail — and the daemon stops checkpointing, so the checkpoints already on
// disk stay the restart point. Checkpoints are binary
// (core.CheckpointVersion 4: path and stable-baseline records as varints
// behind a "KPCK" magic, inside the store's fixed "KCE1" envelope and
// CRC32C frame); a data dir whose only checkpoints were written by an older
// build — versions 1 and 2 were JSON, version 3 still carried the collector
// session tracker — costs one full re-ingest after the upgrade: each is
// refused (1 and 2 by their first bytes, 3 by its version), logged as
// "checkpoint segment discarded" and counted in
// store.checkpoints_discarded, and the history comes out identical. A data
// dir is bound to one (source, seed, detection config, probe config) tuple;
// pointing it at a different archive or changing -tfail, -probe-backend or
// -probe-budget desynchronizes the replay gate — in particular, restarting
// without the probe backend strands any recovered mid-campaign
// confirmations forever (the daemon warns and drops them from serving in
// that case, and refuses checkpoints that carry parked campaigns).
//
// With -probe-backend the daemon grows a data plane: signal groups whose
// epicenters need corroboration are parked as probe campaigns executed
// asynchronously by internal/probe against the simulated traceroute
// substrate of the rendered scenario windows (-synthetic only), under the
// -probe-budget sliding-window cap. Campaign verdicts promote, refute or
// expire the parked groups at bin barriers; in-flight campaigns appear at
// /v1/probes, their counters in /v1/stats, and — with -data-dir — survive a
// restart: recovery serves the interrupted pendings immediately and the
// deterministic catch-up re-parks and re-measures them.
//
// With -trace (on by default) the engine records detection provenance: per
// outage, the evidence chain behind the call — diverted-path signal groups,
// localization candidates considered and eliminated, collateral folds, probe
// campaign verdicts — served at /v1/outages/{id}/trace, streamed as `trace`
// SSE events, and persisted through the store so the evidence survives
// restarts. Tracing changes the published event sequence (one trace event
// per resolution), so a data dir is bound to the -trace setting like it is
// to the detection config. Recording costs nothing when disabled and never
// perturbs detection output either way.
//
// With -feed-silence (30m of stream time by default; 0 disables) the engine
// runs a feed-health watchdog: every collector and every (collector, peer)
// session is tracked by the stream clock, flagged degraded after the silence
// threshold and recovered when it speaks again. Transitions surface as
// feed_degraded / feed_recovered SSE events, warn/info log lines and
// counters; the current per-session view with a live/known coverage ratio is
// served at /v1/health/feeds and as kepler_feed_* gauges at /metrics. The
// watchdog runs on stream time only, so it is deterministic across replay
// speeds and restarts — its state rides in the engine checkpoint and its
// events sit under the replay gate like every other kind, which binds a data
// dir to the -feed-silence setting like it is to the detection config.
// -feed-floor withdraws /healthz readiness (503) while feed coverage sits
// below the given ratio.
//
// Observability: the daemon logs through log/slog (keplerd builds the root
// logger from -log-format text|json and -log-level debug|info|warn|error)
// with component-scoped loggers for the store, probe scheduler, server and
// source. Every bin close is measured in stages (shard barrier, divert
// merge, probe collection, classification, baseline cleanup, hooks); the
// fixed-bucket histograms appear in /v1/stats under bin_close and at
// /metrics as kepler_bin_close_seconds / kepler_bin_close_stage_seconds.
// -slow-bin-ms logs a structured per-stage report for any bin close over the
// threshold. The serving path itself is measured too: per-endpoint request
// latency and status-class histograms (kepler_http_request_seconds), SSE
// delivery lag from publish to the completed client write
// (kepler_sse_delivery_lag_seconds), and per-subscriber queue depth / drop
// gauges (kepler_sse_queue_depth, kepler_sse_queue_dropped_total) — all in
// /v1/stats under http and subscribers, and at /metrics. The benchmark
// (bench/, `bash bench/run.sh`) drives the serving path from the client
// side.
//
// Serving tier: read and event throughput scale independently of history
// size and client count. /v1/outages and /v1/incidents page the store; with
// -data-dir its sealed history is read off indexed snapshot segments through
// a -read-cache bounded LRU — resident memory and boot cost do not grow with
// how long the data dir has been accumulating. Every read endpoint carries a strong ETag per
// published snapshot and answers If-None-Match with 304; the hottest bodies
// are pre-marshaled once per snapshot. /v1/events clients fan out from a
// relay that holds exactly one bus subscription, so a thousand SSE streams
// cost the ingestion path one subscriber; per-client queues stay bounded and
// an aggregate budget sheds newest-joined clients first under overload
// (relay counters in /v1/stats and /metrics).
//
// Endpoints: /healthz, /metrics (Prometheus text exposition),
// /v1/health/feeds, /v1/outages, /v1/outages/{id}/trace, /v1/outages/open,
// /v1/incidents, /v1/probes, /v1/stats, /v1/events (SSE). /v1/outages and
// /v1/incidents paginate with ?after=<id>&limit=<n>. -pprof-addr
// additionally serves the standard net/http/pprof debug endpoints on a
// listener of their own — opt-in, and never on the API port. Shutdown, when
// Run's context is cancelled (keplerd: SIGINT/SIGTERM), is graceful: ingest
// stops at the next record, subscribers are closed, the store synced, and
// the HTTP server stopped. Stopping is not an end of stream, so the engine
// is not flushed: outages still in progress stay open in the last snapshot
// rather than resolving at the last record, and nothing is published or
// persisted that a re-ingestion would not regenerate. The same holds when
// the source fails. Only the end of an archive flushes the engine.
package daemon
