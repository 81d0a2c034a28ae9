// Package kepler is the public API of this repository's reproduction of
// "Detecting Peering Infrastructure Outages in the Wild" (Giotsas et al.,
// ACM SIGCOMM 2017). Kepler detects outages of colocation facilities and
// IXPs purely from public BGP feeds by decoding location-encoding BGP
// community values through an automatically mined dictionary, correlating
// PoP-level path divergence against a colocation map, and validating the
// inferred epicenters against data-plane measurements.
//
// # Architecture: decode stage + one shard + investigator
//
// The detection pipeline is split into two layers behind the record
// decoder. The per-path layer — community annotation, stable-baseline
// maintenance, divergence tracking (Section 4.2) — depends only on the
// records of each (vantage, prefix) path; one path-state shard applies it
// on the ingest goroutine. The cross-path layer — per-AS thresholding,
// Section 4.3 signal investigation, and outage duration tracking — runs in
// an investigator at every 60 s bin boundary and reads the shard's state
// in place. Archive keplerd decodes MRT a stage ahead, on a goroutine of
// its own (internal/live.ReadAhead). One type, Engine, implements the
// pipeline, with two constructors:
//
//   - NewDetector — every bin closed. It is the reference the engine is
//     checked against.
//   - NewEngine — the same engine, skipping the close of provably idle
//     bins; for any stream it emits byte-for-byte the same Outages,
//     Incidents and checkpoints as NewDetector's engine.
//
// Neither starts a goroutine. The shard keeps its per-path records in
// pooled, recycled state structs with small slice-backed tag sets (no
// per-update map churn; withdrawn paths return their storage to free
// lists). Table dumps and updates take the same ingest path,
// Engine.Process.
//
// # Live service layer
//
// On top of the engine sits a serving subsystem that turns batch replay
// into a long-running daemon (internal/daemon). The engine exposes lifecycle
// Hooks — outage opened/updated/resolved, incident classified, bin closed
// — fired synchronously at bin boundaries; internal/events bridges them
// onto an outage event bus with bounded per-subscriber queues (a stalled
// consumer loses only its own events, counted, and can never stall a bin
// close). internal/live supplies streamed record sources: a rate-controlled
// archive replayer (N× real time or maximum speed) and a synthetic
// world-driven generator for soak testing. internal/server serves the
// results over HTTP — /v1/outages, /v1/outages/open, /v1/incidents,
// /v1/stats, /healthz and an SSE stream at /v1/events — from an immutable
// state snapshot republished at each bin barrier, so API reads never
// contend with ingestion. The set of outages reported over the API equals
// the batch NewDetector output for the same record stream.
//
// # Durable history
//
// With a data directory configured (keplerd -data-dir), internal/store
// makes the detection record survive restarts: every lifecycle event is
// appended — synchronously, on the ingestion goroutine, at bin boundaries —
// to a length-prefixed, checksummed write-ahead log, compacted periodically
// into snapshot segments so disk stays bounded. On boot the store recovers
// the persisted history (truncating any torn tail left by a crash), the
// server serves it immediately, and the event bus resumes its sequence
// numbering where the previous process stopped, so SSE clients reconnecting
// with Last-Event-ID — even across the restart — replay exactly the events
// they missed. The daemon then re-ingests its source with the
// already-persisted callback prefix gated off (events.GateHooks):
// detection is deterministic, so a restart mid-archive yields the same
// resolved-outage history as one uninterrupted run. /v1/outages and
// /v1/incidents paginate over that history with stable cursor ids
// (?after=<id>&limit=<n>).
//
// # Serving at scale
//
// Read and event throughput scale independently of history size and
// client count. On the read side, compaction writes history entries
// into framed segment files with a per-segment offset index (rebuilt
// on open if missing or torn, keeping the CRC-verified prefix), and
// snapshots are incremental — each carries only the delta since the
// previous one, so compaction cost stops growing with history. The
// daemon boots from a bounded store summary rather than materializing
// the whole history in memory, and /v1/outages and /v1/incidents
// cursor pages are answered by seeking directly to the indexed frame
// through a bounded LRU of decoded entries (keplerd -read-cache): a
// deep cursor page costs O(page) regardless of history length. Read
// views are pre-marshaled at the bin barrier and every read endpoint
// carries a snapshot-generation ETag honoring If-None-Match — between
// bin closes a polling fleet revalidates with 304s instead of
// re-marshaling JSON. On the event side, an SSE relay sits between the
// bus and the clients: it holds the only upstream subscription and fans
// events to N downstream clients through per-client bounded queues with
// per-tenant kind filters and exactly-once Last-Event-ID resume, so a
// thousand SSE clients cost ingestion exactly one subscriber. Overload
// sheds the newest-joined clients first under an aggregate queue budget
// — a client stampede degrades the edge, never the detection pipeline —
// and each client flush coalesces queued events into a single buffered
// write. The benchmark (`bash bench/run.sh`, bench/README.md) measures the
// relay's fan-out at 1, 100 and 1000 clients and closed-loop reads against
// a running keplerd.
//
// # Checkpointed recovery
//
// Catch-up re-ingestion is bounded by engine checkpoints rather than the
// stream length. Engine.Checkpoint (either constructor) exports
// the complete detection state at a bin barrier — path tables,
// stable-baseline indexes, feed-health watchdog state, the investigator's
// incident log and outage tracker, pending probe confirmations — in a
// versioned, deterministic encoding: every collection is flattened sorted,
// so the bytes are identical for either constructor and a checkpoint
// restores (Engine.RestoreFrom) into a pipeline built by either.
// keplerd captures a checkpoint at bin closes at least
// -checkpoint-interval of stream time apart and writes it as a CRC-framed,
// atomically renamed segment beside the WAL (internal/store keeps the
// newest two); boot loads the recovered history, restores the
// newest valid checkpoint — falling back to the older one, then to a full
// re-ingest, on any corruption or version mismatch, never a partial
// restore — seeks the source to the checkpoint's record cursor
// (live.Resumable: the archive replayer skips ahead, the synthetic
// generator re-renders one window from its seed), and replays only the
// suffix under the same gate. A SIGKILL + checkpoint-restore run emits
// byte-for-byte the event sequence of an uninterrupted run (pinned by
// internal/server's restart equivalence tests);
// store.resume_records in /v1/stats and /metrics reports the resume
// offset, so recovery cost is observable and bounded by one checkpoint
// interval plus one checkpoint save.
//
// The disk is not on the ingest path. What must be consistent with the bin
// barrier — the engine capture, the event sequence, the source cursor — is
// taken in the BinClosed hook; a captured Checkpoint shares only immutable
// pages with the pipeline, so store.CheckpointSaver encodes it (into one
// buffer it reuses), writes and fsyncs it on a goroutine of its own while
// ingest runs on (TestSaverEncodeRacesIngest: the bytes are those of
// encoding at the barrier, under -race, for both constructors). One save is in flight at most and nothing queues: a checkpoint
// that comes due while the saver is busy stays due and is captured at the
// first later barrier that finds it idle, from that barrier's state, so
// the interval is a floor on the spacing and a restart re-ingests at most
// one interval of stream plus what ingest covered during one save. When
// saves finish between barriers — any live feed — the schedule is exactly
// that of saving inline (TestSaverIdleMatchesSynchronousSchedule); at
// maximum-speed replay fewer checkpoints are written than come due, and
// storm-durable ingest is 1.6× faster for it (BENCH_pr19.json). Once the
// source has ended a due checkpoint waits for the saver instead of
// deferring, so the end-of-source checkpoint is an ordinary barrier
// checkpoint and is on disk before the daemon says the source drained;
// shutdown waits for the save in flight; a capture or save that fails
// leaves the checkpoint due for the next barrier. A SIGKILL mid-save
// leaves a .tmp the next boot sweeps and the previous generation to resume
// from (TestRestartSaverKilledMidSave).
//
// The encoding is binary (core.CheckpointVersion 4): a "KPCK" magic and
// varint header, then one length-prefixed record per monitored path (key,
// AS path, tags) and per stable-baseline entry — 98 % of the bytes, never
// through encoding/json — and the small sections (feed health, incidents,
// tracker, pending campaigns) as one embedded JSON object. Every
// count is checked against the remaining input before anything is
// allocated for it (FuzzDecodeCheckpoint), and
// internal/core/testdata/checkpoint_v4.golden pins the bytes. The store
// wraps the engine bytes in one CRC32C frame behind a fixed 48-byte
// envelope ("KCE1", event sequence, record cursor, bin end), so saving and
// loading touch the payload only to checksum it, and a save holds no store
// lock across its I/O. WAL frames stay JSON: at ~2 µs per append and
// 1.2 MB per storm archive there is no measured case for a second frame
// codec (BENCH_pr14.json). Upgrading across a checkpoint version is one
// full re-ingest: an older build's checkpoint is refused (versions 1 and 2
// were JSON, refused by their first bytes; version 3 carried collector
// session state, refused by its version), counted in
// store.checkpoints_discarded and logged, and the boot falls through to
// record zero behind the replay gate — same history, byte for byte.
//
// A checkpoint costs what changed since the previous one. The engine keeps
// the two big sections encoded between captures — the checkpoint image
// (internal/core/image.go): pages of at most 32 consecutive records in
// checkpoint order — and its shard notes the path keys and stable-baseline
// entries they touch; a capture at the barrier re-encodes those, rebuilds
// the pages they fall into in one merge pass and shares every other page
// with the checkpoints before it, and Encode concatenates header, pages
// and the JSON tail. The bytes are those of a from-scratch encoding
// (TestCheckpointIncrementalEqualsRebuild compares the two at every barrier
// of a storm, for both constructors): building
// the image from the shard maps is the same merge with everything changed,
// and is what the first capture, the first after RestoreFrom and one
// following a burst that outgrew the change lists (a RIB dump between two
// barriers) do. Tracking is off until an engine's first capture, so a
// memory-mode daemon pays one branch per mutation and keeps no lists. On
// the storm archive a capture re-encodes ≈ 227 of 12 k path records and
// ≈ 300 of 14.7 k stable entries: under a millisecond instead of nine, and
// keplerd ingests it 2.8× faster with -data-dir (BENCH_pr16.json). /v1/stats and
// /metrics carry two checkpoint histograms — what one cost the ingest
// goroutine (the capture, plus the wait for the saver at end of source) and
// what it cost the saver (encode, write, fsync) — a count of due
// checkpoints deferred behind a save, and the last capture's dirty counts
// and cold rebuilds. keplerd stops checkpointing once a WAL append has
// failed and it serves on in memory: a checkpoint past the frozen durable
// horizon would be refused at boot, and two of them would rotate out the
// generations a restart can still use.
//
// # Active measurement
//
// The paper's pipeline falls back to targeted traceroutes when the control
// plane cannot pin an epicenter (Section 4.3) and validates inferences
// against the data plane (Section 4.4). There is one path to the data
// plane, shaped as budgeted public platforms impose: a Prober
// (Engine.SetProber, internal/probe) over a probe.Backend. The paper
// experiments and the examples run it through internal/pipeline's
// Stack.Run (an unbounded budget over the simulated traceroute layer),
// keplerd -synthetic runs it live. At bin close the engine parks the
// signal group as a pending confirmation and submits a probe campaign:
// the scheduler deduplicates targets against in-flight probes and a
// cooldown-guarded LRU verdict cache, orders execution by localization
// specificity (facility > IXP > city, newest signal first), enforces a
// sliding-window measurement budget (denied probes resolve as no-data, the
// exhausted-platform contract), and delivers verdicts at the next bin
// barrier, where the parked group is promoted to a located outage,
// suppressed as a data-plane-contradicted false positive, resolved
// unlocated, or expired after Config.ProbeTTL. Probes run while ingestion
// continues, and the next bin barrier waits for them, so the output stays
// a pure function of the record stream, whatever the worker count.
// Campaign lifecycle surfaces through three more Hooks (probe
// requested/confirmed/expired), persists through the store WAL (a
// restarted keplerd recovers mid-flight campaigns), and serves at
// /v1/probes; keplerd enables it with -probe-backend and -probe-budget,
// and exports every counter at the Prometheus-format /metrics endpoint.
//
// # Observability
//
// Three layers make a running deployment explainable. Provenance traces
// (Config.Tracing, keplerd -trace) record, per resolved outage, the
// evidence chain that produced it: each bin's diverted-path samples with
// their stable-baseline counts, every localization step with the
// candidates considered and eliminated, collateral-damage folds into
// dominating epicenters, and probe campaign verdicts. The trace follows
// the outage through the resolution hook (Hooks.TraceRecorded, fired only
// when tracing is on — disabled, the published event sequence is
// byte-for-byte unchanged, and detection output never differs either way),
// persists through the store WAL and snapshots size-capped, and serves at
// GET /v1/outages/{id}/trace plus a "trace" SSE event kind. Staged
// bin-close latency (metrics.BinStageStats, Engine.SetBinStageStats)
// decomposes every bin close into fixed-bucket duration histograms —
// due promotions, probe collect, classify, finish, hooks —
// exported as JSON quantiles in /v1/stats and as Prometheus histogram
// series (kepler_bin_close_seconds, kepler_bin_close_stage_seconds) on
// /metrics; keplerd -slow-bin-ms logs a structured per-stage report for
// any bin close over the threshold. And both commands log diagnostics
// through log/slog — keplerd -log-format text|json, -log-level, with
// per-component loggers threaded into the source, store, probe scheduler
// and HTTP server — while report output (stdout, SSE, the JSON API) stays
// fixed-format.
//
// The feed-health watchdog (Config.FeedSilence, keplerd -feed-silence)
// watches the input side: every collector and (collector, peer) session
// is tracked on the stream clock and flagged degraded once silent past
// the threshold, recovered when it speaks again. The paper's detector
// reads dozens of independent BGP feeds, and a silently dead feed skews
// the diverted-path denominators long before it shows up in detection
// output — the watchdog makes that visible as feed_degraded /
// feed_recovered events (Hooks.FeedDegraded/FeedRecovered, their own SSE
// kinds), a per-session view with a live/known coverage ratio at
// /v1/health/feeds, and kepler_feed_* series at /metrics. Because it
// runs on stream time only, fires on the bin barrier, checkpoints with
// the engine and sits under the replay gate, it is deterministic across
// constructors, replay speeds and restarts, and never perturbs detection
// output. keplerd -feed-floor turns coverage into readiness: /healthz
// reports 503 while the ratio sits below the floor.
//
// The serving path is measured from both sides. Server-side,
// metrics.HTTPStats records per-endpoint request latency and
// status-class histograms (kepler_http_request_seconds), the SSE
// delivery-lag histogram from bus publish to the completed client write
// (kepler_sse_delivery_lag_seconds), and per-subscriber queue depth and
// drop gauges (kepler_sse_queue_depth, kepler_sse_queue_dropped_total) —
// all under http, subscribers and feeds in /v1/stats and on /metrics.
// Each plain counter or gauge is declared once, by the tags of its
// snapshot field (metrics.StoreSnapshot and its siblings): its /v1/stats
// key and its /metrics series come from the same declaration. Client-side,
// the benchmark's readers (bench/clients.go) drive a running keplerd with
// concurrent pollers and SSE consumers.
//
// # Determinism invariants
//
// Everything above rests on one promise: detection output is a pure
// function of the record stream — byte-for-byte identical across the two
// constructors, restarts and async probing. The equivalence tests pin that
// promise at runtime; cmd/keplervet (internal/lint) enforces the coding
// contracts behind it mechanically, with zero dependencies beyond the go
// tool:
//
//   - maporder — map iteration in internal/core, internal/bgpstream and
//     internal/probe must not feed order-sensitive effects (slice appends
//     that escape the loop, hook/event callbacks, encoders, channel
//     sends, probe charging) unless the collect-then-sort idiom is used:
//     Go randomizes range-over-map order on purpose.
//   - walltime — the detection packages (core, bgpstream, pipeline,
//     traceroute) run on stream time; time.Now/Since/Sleep and friends
//     are flagged there unless allowlisted as instrumentation.
//   - hookbarrier — Hooks callbacks may fire only on the bin-close/flush
//     barrier path (closeBinOver, Flush, finishProbes and their exclusive
//     callees); anywhere else publishes state mid-bin.
//   - atomicstats — metrics *Stats counter fields must be atomic types
//     and accessed only through their atomic method sets (concurrent
//     writers, lock-free readers); *Snapshot copies are plain by design.
//   - syncclose — os.File writes in internal/store must reach an fsync
//     before a success return, and write errors must not be discarded (a
//     torn WAL frame must never be silent).
//
// Run the suite with `go run ./cmd/keplervet ./...` (exit 0 clean, 1 on
// findings; -json for the machine-readable form CI archives). A
// sanctioned exception is annotated in place with
// `//keplervet:ignore <analyzer> <reason>` — the reason is mandatory,
// and an ignore that no longer suppresses anything is itself reported.
//
// The facade re-exports the detection core; richer control lives in the
// internal packages, which the module's commands and examples exercise:
//
//   - internal/core        — the detection pipeline (this package's types)
//   - internal/probe       — the asynchronous probe scheduler (campaign
//     dedup, priorities, budgets, verdict cache, backends)
//   - internal/communities — community dictionary + documentation miner
//   - internal/colo        — colocation map construction
//   - internal/bgpstream   — the record-to-route-op fan-out stage (route ops,
//     peer-down broadcast) and the feed-health watchdog
//   - internal/live        — streamed sources (archive replayer, synthetic
//     soak generator) and the engine pump
//   - internal/events      — the outage/incident event bus (with the
//     Last-Event-ID replay ring and the recovery replay gate)
//   - internal/server      — the HTTP JSON API + SSE stream
//   - internal/store       — the WAL-backed durable outage history
//   - internal/metrics     — evaluation stats plus ingestion counters
//     (records/sec, bin lag), serving counters
//     (HTTP requests, SSE clients, bus drops) and store counters
//     (appends, compactions, recovery)
//   - internal/topology, internal/routing, internal/simulate — the
//     synthetic Internet used for evaluation
//
// A minimal streaming deployment:
//
//	eng := kepler.NewEngine(kepler.DefaultConfig(), dict, cmap, orgs)
//	for rec := range feed {
//	    for _, outage := range eng.Process(rec) {
//	        log.Printf("outage at %v: %v..%v", outage.PoP, outage.Start, outage.End)
//	    }
//	}
//	outages := eng.Flush(lastRecordTime) // drain open state at stream end
//
// The same pipeline as a queryable service:
//
//	topogen -seed 1 -days 30 -out archive.mrt            # render a scenario archive
//	keplerd -seed 1 -archive archive.mrt -data-dir data  # ingest + serve, durably
//	curl localhost:8080/v1/outages/open                  # ongoing outages, JSON
//	curl 'localhost:8080/v1/outages?limit=50'            # resolved history, first page
//	curl 'localhost:8080/v1/outages?after=50&limit=50'   # ... next page
//	curl -N localhost:8080/v1/events                     # live SSE stream (relay fan-out)
//	curl -i localhost:8080/v1/outages/open               # note the ETag header ...
//	curl -H 'If-None-Match: <etag>' localhost:8080/v1/outages/open   # ... 304 until next bin
//	curl localhost:8080/v1/health/feeds                  # per-collector/per-peer feed health
//	curl localhost:8080/metrics                          # the same counters, Prometheus text
//	go run ./cmd/keplervet ./...                         # check the determinism contracts
//
// Restarting keplerd against the same -data-dir recovers and keeps serving
// the accumulated history; `curl -N -H 'Last-Event-ID: 42'
// localhost:8080/v1/events` replays everything after event 42 first.
package kepler

import (
	"kepler/internal/as2org"
	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/core"
)

// Core detection types, re-exported.
type (
	// Config carries Kepler's tuning parameters (thresholds, windows).
	Config = core.Config
	// Engine is the streaming detection pipeline: one path-state shard
	// plus a bin-synchronized investigator, closing every bin (NewDetector)
	// or skipping idle ones (NewEngine), with identical output for any
	// record stream.
	Engine = core.Engine
	// Outage is a completed PoP-level outage with duration and impact.
	Outage = core.Outage
	// Incident is one classified outage signal (link/AS/operator/PoP).
	Incident = core.Incident
	// IncidentKind is the signal classification granularity.
	IncidentKind = core.IncidentKind
	// Prober is the data-plane measurement interface: probe campaigns
	// submitted at bin close, verdicts collected at later bin barriers
	// (implemented by internal/probe.Scheduler).
	Prober = core.Prober
	// ProbeRequest is one submitted probe campaign.
	ProbeRequest = core.ProbeRequest
	// ProbeResult is the measured outcome for one campaign candidate.
	ProbeResult = core.ProbeResult
	// ProbeVerdict is one completed campaign's per-candidate results.
	ProbeVerdict = core.ProbeVerdict
	// PendingConfirmation is a signal group parked awaiting its verdict.
	PendingConfirmation = core.PendingConfirmation
	// ProbeOutcome reports how a pending confirmation resolved.
	ProbeOutcome = core.ProbeOutcome
	// Hooks receives lifecycle callbacks (outage opened/updated/resolved,
	// incident classified, bin closed) at bin boundaries — the feed of the
	// live service layer's event bus.
	Hooks = core.Hooks
	// OutageStatus is a point-in-time snapshot of one ongoing outage.
	OutageStatus = core.OutageStatus
	// OutageTrace is the provenance record behind one resolved outage
	// (Config.Tracing): the per-bin evidence chain — diverted-path samples,
	// localization steps, collateral folds, probe verdicts — delivered via
	// Hooks.TraceRecorded.
	OutageTrace = core.OutageTrace
	// TraceChapter is one bin's contribution to an OutageTrace.
	TraceChapter = core.TraceChapter

	// Dictionary maps community values to physical PoPs.
	Dictionary = communities.Dictionary
	// ColocationMap answers AS/facility/IXP colocation queries.
	ColocationMap = colo.Map
	// PoP references a city, facility or IXP.
	PoP = colo.PoP
	// OrgTable maps ASes to the organizations operating them.
	OrgTable = as2org.Table
)

// Incident kinds, re-exported.
const (
	IncidentLink     = core.IncidentLink
	IncidentAS       = core.IncidentAS
	IncidentOperator = core.IncidentOperator
	IncidentPoP      = core.IncidentPoP
)

// DefaultConfig returns the paper's parameters: Tfail=10%, 60 s bins,
// 2-day stable window, 95% colocation margin, 50% restore fraction, 12 h
// oscillation gap.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewDetector builds the reference engine, which closes every bin, over a
// mined dictionary, a merged colocation map and an optional
// AS-to-organization table.
func NewDetector(cfg Config, dict *Dictionary, cmap *ColocationMap, orgs *OrgTable) *Engine {
	return core.New(cfg, dict, cmap, orgs)
}

// NewEngine builds the engine that skips provably idle bins over the same
// inputs, with NewDetector's output for any stream. Neither starts a
// goroutine.
func NewEngine(cfg Config, dict *Dictionary, cmap *ColocationMap, orgs *OrgTable) *Engine {
	return core.NewEngine(cfg, dict, cmap, orgs)
}
