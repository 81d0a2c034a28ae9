// Command keplerd runs Kepler as a long-lived service: it ingests a
// streamed record source through the sharded detection engine and serves
// detection results over an HTTP JSON API plus a Server-Sent-Events stream
// while ingestion is running. This is the daemon shape of the paper's
// deployment — a continuously-operating monitor rather than a batch report.
//
// Two sources are available:
//
//   - -archive replays an MRT-lite file (from cmd/topogen) through a
//     rate-controlled replayer: -speed 1 re-creates the original arrival
//     timing, -speed 60 compresses an archive minute into a second, and
//     -speed 0 (the default) replays as fast as the hardware allows. After
//     the archive drains, the daemon keeps serving its results until
//     signalled.
//   - -synthetic renders rolling scenario windows over the generated world
//     forever — the soak-test mode; no file needed.
//
// The colocation map and community dictionary are reconstructed from the
// same world seed the archive was generated with, exactly as cmd/kepler
// does.
//
// With -data-dir the daemon keeps its history durable: every lifecycle
// event is appended to a checksummed write-ahead log (internal/store),
// compacted periodically into snapshot segments, and the engine's full
// detection state is checkpointed beside it, at bin closes at least
// -checkpoint-interval of stream time apart. On boot the directory is recovered — resolved outages and
// incidents are served immediately, SSE sequence numbers continue where
// they left off (so Last-Event-ID resume works across restarts), the
// engine restores the newest valid checkpoint (corrupt or incompatible
// checkpoints fall back to the older generation, then to record zero),
// and the source is re-ingested from the checkpoint's record cursor with
// already-persisted events suppressed — a restart mid-archive is
// equivalent to one uninterrupted run, and the catch-up cost is bounded
// by one checkpoint interval plus one checkpoint save rather than the
// stream length (store.resume_records in /v1/stats reports the resume
// offset).
// Ingest never waits for the disk over a checkpoint. A bin close captures
// one — what changed since the previous capture; the engine keeps its
// encoded sections warm between bin barriers — and a saver goroutine
// encodes, writes and fsyncs it while ingest runs on, one save at a time. A
// checkpoint that comes due while the saver is busy stays due and is taken
// at the first later bin close that finds it idle, from that bin close's
// state (replaying an archive at maximum speed therefore writes fewer
// checkpoints than a live feed, which writes every one); once the source
// has ended a due checkpoint waits for the saver instead, so the last one
// is on disk before "source drained" is logged, and shutdown waits for the
// save in flight. /v1/stats and /metrics report what each checkpoint cost
// the ingest goroutine, what it cost the saver, how many were deferred and
// how much the last capture had to re-encode. A failed checkpoint is
// retried at the next bin close. If a WAL append fails the daemon serves on
// in memory and stops checkpointing, so the checkpoints already on disk
// stay the restart point.
// Checkpoints are binary (core.CheckpointVersion 3: path and
// stable-baseline records as varints behind a "KPCK" magic, inside the
// store's fixed "KCE1" envelope and CRC32C frame); a data dir whose only
// checkpoints were written by an older build — versions 1 and 2 were JSON —
// costs one full re-ingest after the upgrade: each is refused by its first
// bytes, logged as "checkpoint segment discarded" and counted in
// store.checkpoints_discarded, and the history comes out identical. A data
// dir is bound to one (source, seed, detection config, probe config)
// tuple; pointing it at a different archive or changing -tfail,
// -probe-backend or -probe-budget desynchronizes the replay gate — in
// particular, restarting without the probe backend strands any recovered
// mid-campaign confirmations forever (the daemon warns and drops them
// from serving in that case, and refuses checkpoints that carry parked
// campaigns).
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
// With -trace (on by default) the engine records detection provenance:
// per outage, the evidence chain behind the call — diverted-path signal
// groups, localization candidates considered and eliminated, collateral
// folds, probe campaign verdicts — served at /v1/outages/{id}/trace,
// streamed as `trace` SSE events, and persisted through the store so the
// evidence survives restarts. Tracing changes the published event sequence
// (one trace event per resolution), so a data dir is bound to the -trace
// setting like it is to the detection config. Recording costs nothing when
// disabled and never perturbs detection output either way.
//
// With -feed-silence (30m of stream time by default; 0 disables) the
// engine runs a feed-health watchdog: every collector and every
// (collector, peer) session is tracked by the stream clock, flagged
// degraded after the silence threshold and recovered when it speaks
// again. Transitions surface as feed_degraded / feed_recovered SSE
// events, warn/info log lines and counters; the current per-session view
// with a live/known coverage ratio is served at /v1/health/feeds and as
// kepler_feed_* gauges at /metrics. The watchdog runs on stream time
// only, so it is deterministic across replay speeds and restarts — its
// state rides in the engine checkpoint and its events sit under the
// replay gate like every other kind, which binds a data dir to the
// -feed-silence setting like it is to the detection config.
// -feed-floor withdraws /healthz readiness (503) while feed coverage
// sits below the given ratio.
//
// Observability: keplerd logs through log/slog — -log-format text|json,
// -log-level debug|info|warn|error — with component-scoped loggers for the
// store, probe scheduler, server and source. Every bin close is measured
// in stages (shard barrier, divert merge, probe collection, classification,
// baseline cleanup, hooks); the fixed-bucket histograms appear in /v1/stats
// under bin_close and at /metrics as kepler_bin_close_seconds /
// kepler_bin_close_stage_seconds. -slow-bin-ms logs a structured per-stage
// report for any bin close over the threshold. The serving path itself is
// measured too: per-endpoint request latency and status-class histograms
// (kepler_http_request_seconds), SSE delivery lag from publish to the
// completed client write (kepler_sse_delivery_lag_seconds), and
// per-subscriber queue depth / drop gauges (kepler_sse_queue_depth,
// kepler_sse_queue_dropped_total) — all in /v1/stats under http and
// subscribers, and at /metrics. cmd/keplerload soaks the serving path
// from the client side and reports both perspectives side by side.
//
// Serving tier: read and event throughput scale independently of history
// size and client count. With -data-dir, /v1/outages and /v1/incidents
// page off the store's indexed snapshot segments through a -read-cache
// bounded LRU — resident memory and boot cost no longer grow with how long
// the data dir has been accumulating. Every read endpoint carries a strong
// ETag per published snapshot and answers If-None-Match with 304; the
// hottest bodies are pre-marshaled once per snapshot. /v1/events clients
// fan out from a relay that holds exactly one bus subscription, so a
// thousand SSE streams cost the ingestion path one subscriber; per-client
// queues stay bounded and an aggregate budget sheds newest-joined clients
// first under overload (relay counters in /v1/stats and /metrics).
//
// Endpoints: /healthz, /metrics (Prometheus text exposition),
// /v1/health/feeds, /v1/outages, /v1/outages/{id}/trace,
// /v1/outages/open, /v1/incidents, /v1/probes, /v1/stats, /v1/events
// (SSE). /v1/outages and /v1/incidents paginate with
// ?after=<id>&limit=<n>.
// -pprof-addr additionally serves the standard net/http/pprof debug
// endpoints on a listener of their own — opt-in, and never on the API port.
// Shutdown on SIGINT/SIGTERM is graceful: the source is drained, the
// engine flushed (emitting final outage events), subscribers closed, the
// store synced, and the HTTP server stopped.
//
// Usage:
//
//	keplerd -seed 1 -archive archive.mrt -listen 127.0.0.1:8080
//	keplerd -seed 1 -archive archive.mrt -data-dir /var/lib/kepler
//	keplerd -seed 1 -synthetic -speed 600
//	keplerd -seed 1 -synthetic -probe-backend sim -probe-budget 512
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/live"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/probe"
	"kepler/internal/server"
	"kepler/internal/store"
	"kepler/internal/topology"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "world seed the archive was generated with")
		archive   = flag.String("archive", "", "MRT-lite archive to replay")
		synthetic = flag.Bool("synthetic", false, "soak mode: stream rendered scenario windows instead of an archive")
		speed     = flag.Float64("speed", 0, "archive replay speed multiplier; 0 replays at maximum speed")
		listen    = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		tfail     = flag.Float64("tfail", 0.10, "outage signal threshold, in (0,1]")
		unres     = flag.Bool("report-unresolved", true, "report outages whose epicenter could not be pinned (no data plane in replay mode)")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "path-state shard workers; <= 0 selects one per core")
		sseBuffer = flag.Int("sse-buffer", 256, "per-client SSE event queue; a client stalled past it loses events")
		grace     = flag.Duration("shutdown-timeout", 10*time.Second, "graceful HTTP shutdown budget")
		dataDir   = flag.String("data-dir", "", "durable history directory (WAL + snapshots); empty keeps history in memory only")
		compactMB = flag.Int64("compact-mb", 8, "WAL size in MiB past which the next bin close compacts into a snapshot segment")
		ckptIv    = flag.Duration("checkpoint-interval", 15*time.Minute, "least stream time between engine state checkpoints (with -data-dir): one is captured at the first bin close this long after the previous one's that finds the previous save finished, so restart recovery re-ingests at most this much of the stream plus what ingest covered during one save. Checkpoint segments rotate independently of -compact-mb")
		ringSize  = flag.Int("resume-ring", 4096, "recent events retained for SSE Last-Event-ID resume")
		probeBkn  = flag.String("probe-backend", "", "active-measurement backend: sim, sim-fault (latency/loss-injected soak), or empty to disable probing; requires -synthetic")
		probeBdg  = flag.Int("probe-budget", 256, "probes allowed per sliding one-hour window")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this host:port (own listener, never the API's); empty disables profiling")
		logFormat = flag.String("log-format", logFormatText, "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log severity: debug, info, warn or error")
		slowBinMS = flag.Int("slow-bin-ms", 0, "log a structured per-stage report for any bin close slower than this many milliseconds; 0 disables")
		tracing   = flag.Bool("trace", true, "record detection provenance traces, served at /v1/outages/{id}/trace; a data dir is bound to this setting like it is to the detection config")
		feedSil   = flag.Duration("feed-silence", 30*time.Minute, "stream time after which a silent collector or peer session is flagged degraded (feed-health watchdog, /v1/health/feeds); 0 disables. A data dir is bound to this setting like it is to the detection config")
		feedFloor = flag.Float64("feed-floor", 0, "feed coverage ratio (live/known peer sessions) below which /healthz reports 503; 0 disables, requires -feed-silence > 0")
		readCache = flag.Int("read-cache", 4096, "decoded history entries cached in memory per type when paging /v1/outages and /v1/incidents off snapshot segments (with -data-dir)")
	)
	flag.Parse()

	if *seed < 0 {
		fatal(fmt.Errorf("-seed must be non-negative, got %d (a world cannot be generated from a negative seed)", *seed))
	}
	if *tfail <= 0 || *tfail > 1 {
		fatal(fmt.Errorf("-tfail must be in (0,1], got %v (it is the fraction of an AS's stable paths that must divert)", *tfail))
	}
	if *speed < 0 {
		fatal(fmt.Errorf("-speed must be >= 0, got %v (0 replays at maximum speed)", *speed))
	}
	if *archive == "" && !*synthetic {
		fatal(fmt.Errorf("one of -archive or -synthetic is required"))
	}
	if *archive != "" && *synthetic {
		fatal(fmt.Errorf("-archive and -synthetic are mutually exclusive"))
	}
	if *compactMB <= 0 {
		fatal(fmt.Errorf("-compact-mb must be positive, got %d", *compactMB))
	}
	if err := validateCheckpointFlags(*ckptIv); err != nil {
		fatal(err)
	}
	if *ringSize < 0 {
		fatal(fmt.Errorf("-resume-ring must be non-negative, got %d (0 disables resume)", *ringSize))
	}
	if err := validateProbeFlags(*probeBkn, *probeBdg, *synthetic); err != nil {
		fatal(err)
	}
	if err := validatePprofFlags(*pprofAddr, *listen); err != nil {
		fatal(err)
	}
	if err := validateLogFlags(*logFormat, *logLevel); err != nil {
		fatal(err)
	}
	if err := validateSlowBinFlag(*slowBinMS); err != nil {
		fatal(err)
	}
	if err := validateFeedFlags(*feedSil, *feedFloor); err != nil {
		fatal(err)
	}
	if err := validateServeFlags(*readCache); err != nil {
		fatal(err)
	}

	// One root logger; every subsystem logs through a component-scoped
	// child so a single -log-format/-log-level pair governs the process.
	logger := newLogger(os.Stderr, *logFormat, *logLevel)
	dlog := logger.With("component", "daemon")

	cfg := topology.DefaultConfig()
	cfg.Seed = *seed
	w, err := topology.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	stack := pipeline.Build(w, 77)
	dlog.Info("pipeline built",
		"communities", stack.Dict.Len(), "ases", len(stack.Dict.CoveredASNs()),
		"facilities", stack.Map.NumFacilities(), "ixps", stack.Map.NumIXPs())

	// Active-measurement substrate: the probe scheduler measures against
	// the simulated traceroute layer of the rendered scenario windows,
	// installed as the synthetic source rotates them. Per-window platform
	// budgets are effectively unbounded — the scheduler's sliding window is
	// the enforced cap.
	var (
		probeStats *metrics.ProbeStats
		wdp        *pipeline.WindowDataPlane
		sched      *probe.Scheduler
	)
	if *probeBkn != probeBackendNone {
		probeStats = &metrics.ProbeStats{}
		wdp = stack.NewWindowDataPlane(1 << 30)
		backend := probe.Backend(probe.OverDataPlane(wdp))
		if *probeBkn == probeBackendSimFault {
			backend = &probe.Fault{
				Inner:    backend,
				Latency:  2 * time.Second,
				Jitter:   500 * time.Millisecond,
				LossRate: 0.05,
				Seed:     *seed,
			}
		}
		sched = probe.NewScheduler(backend, probe.Config{
			Workers:  4,
			Budget:   *probeBdg,
			Window:   time.Hour,
			Cooldown: 5 * time.Minute,
			Metrics:  probeStats,
			Logger:   logger.With("component", "probe"),
		})
		defer sched.Close()
		dlog.Info("probe scheduler on", "backend", *probeBkn, "budget_per_hour", *probeBdg)
	}

	// Source. Both sources are Resumable; the Tracked wrapper remembers the
	// cursor of the in-flight record so checkpoints taken inside BinClosed
	// hooks (mid-Process) can record the exact resume position.
	var tracked *live.Tracked
	switch {
	case *synthetic:
		scfg := live.SyntheticConfig{Seed: *seed + 100, Logger: logger.With("component", "source")}
		if wdp != nil {
			scfg.OnWindow = wdp.Install
		}
		tracked = live.Track(live.NewSynthetic(w, scfg))
		dlog.Info("synthetic soak source (endless rolling windows)")
	default:
		f, err := os.Open(*archive)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tracked = live.Track(live.NewReplayer(mrt.NewReader(f), *speed))
		dlog.Info("replaying archive", "archive", *archive, "speed", speedName(*speed))
	}
	var src live.Source = tracked

	kcfg := core.DefaultConfig()
	kcfg.Tfail = *tfail
	kcfg.ReportUnresolved = *unres
	kcfg.Tracing = *tracing
	kcfg.FeedSilence = *feedSil

	// Staged bin-close latency: always collected (a handful of monotonic
	// clock reads per bin), exported via /v1/stats and /metrics. -slow-bin-ms
	// additionally turns outliers into structured warn reports.
	binStage := &metrics.BinStageStats{}
	if *slowBinMS > 0 {
		//keplervet:ignore atomicstats write-once config before the engine or server goroutines exist
		binStage.SlowBinThreshold = time.Duration(*slowBinMS) * time.Millisecond
		binStage.OnSlowBin = func(sp metrics.BinSpans) {
			dlog.Warn("slow bin close", slowBinAttrs(sp)...)
		}
	}

	// Durable history. The store's sink runs synchronously on the ingest
	// goroutine. On a shutdown-abort the whole hook chain is muted (see
	// events.MuteHooks) before the engine's final flush, so the resolution
	// artifacts of stopping are neither published nor persisted — a
	// deterministic re-ingestion would not regenerate them, and burning
	// sequence numbers on them would break SSE resume across the restart.
	svc := &metrics.ServiceStats{}
	var (
		st         *store.Store
		storeStats *metrics.StoreStats
		sum        store.Summary
		sinkArmed  atomic.Bool // cleared if an append fails: serve on, in memory
		aborting   atomic.Bool // set by OnAbort: mute hooks through shutdown
		resume     *store.Checkpoint
		engCkpt    *core.Checkpoint
	)
	busOpts := []events.Option{events.WithRing(*ringSize)}
	if *dataDir != "" {
		storeStats = &metrics.StoreStats{}
		st, err = store.Open(store.Options{
			Dir:          *dataDir,
			CompactBytes: *compactMB << 20,
			TailEvents:   *ringSize,
			ReadCache:    *readCache,
			Metrics:      storeStats,
			Logger:       logger.With("component", "store"),
		})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		// Summary, not History: recovery needs the bounded state (totals,
		// traces, pendings, event tail) — the entry histories stay on disk
		// and are paged in per request, so boot cost and resident memory no
		// longer scale with how long the data dir has been accumulating.
		sum = st.Summary()
		sinkArmed.Store(true)
		busOpts = append(busOpts,
			events.WithStartSeq(sum.LastSeq),
			events.WithSink(func(ev events.Event) {
				if !sinkArmed.Load() {
					return
				}
				if err := st.Append(ev); err != nil {
					// Losing durability must not take down detection;
					// serve on, in-memory, and say so loudly. Checkpointing
					// stops with it (see hooks.BinClosed below).
					dlog.Error("store append failed, persistence and checkpointing disabled", "error", err)
					sinkArmed.Store(false)
				}
			}),
		)
		dlog.Info("history recovered", "dir", *dataDir,
			"outages", sum.ResolvedTotal, "incidents", sum.IncidentTotal,
			"traces", len(sum.Traces), "seq", sum.LastSeq, "last_bin", sum.LastBin)

		// Newest usable engine checkpoint: structurally valid (CRC-framed),
		// version-compatible, not ahead of the durable event horizon (a
		// machine crash can persist a checkpoint whose WAL pages were lost),
		// and runnable in this configuration. Anything else falls back —
		// older checkpoint, then full re-ingest — never a partial restore.
		resume = st.LoadCheckpoint(func(c *store.Checkpoint) error {
			if c.EventSeq > sum.LastSeq {
				return fmt.Errorf("checkpoint seq %d ahead of durable horizon %d", c.EventSeq, sum.LastSeq)
			}
			ec, err := core.DecodeCheckpoint(c.Engine)
			if err != nil {
				return err
			}
			if ec.Records != c.Records {
				return fmt.Errorf("checkpoint envelope at record %d but engine state at %d", c.Records, ec.Records)
			}
			if len(ec.Pending) > 0 && sched == nil {
				return fmt.Errorf("checkpoint carries %d pending probe campaigns but this run has no -probe-backend", len(ec.Pending))
			}
			engCkpt = ec
			return nil
		})
	}

	// Engine → bus → server wiring. All SSE clients fan out from the one bus
	// subscription of the server's relay; the ingestion path pays for one
	// subscriber no matter how many clients stream.
	bus := events.New(svc, busOpts...)
	bus.SeedRing(sum.Tail)
	ckptStats := &metrics.CheckpointStats{}
	eng := stack.NewEngine(kcfg, *shards)
	eng.SetBinStageStats(binStage)
	eng.SetCheckpointStats(ckptStats)
	if sched != nil {
		eng.SetProber(sched)
	}

	// Checkpointed recovery: restore the engine to the checkpoint barrier
	// and seek the source to its record cursor, so catch-up re-ingests only
	// the suffix since the checkpoint instead of the whole stream. The
	// replay gate below then skips only the events published between the
	// checkpoint and the durable horizon.
	gateSkip := sum.LastSeq
	if engCkpt != nil {
		if err := eng.RestoreFrom(engCkpt); err != nil {
			// Should be unreachable (LoadCheckpoint pre-validated); rebuild
			// the engine rather than risk a partial restore.
			dlog.Error("checkpoint restore failed, re-ingesting from record zero", "error", err)
			eng.Close()
			eng = stack.NewEngine(kcfg, *shards)
			eng.SetBinStageStats(binStage)
			eng.SetCheckpointStats(ckptStats)
			if sched != nil {
				eng.SetProber(sched)
			}
			resume, engCkpt = nil, nil
		}
	}
	if resume != nil {
		cur := live.Cursor{Records: resume.Records, Window: resume.Window, WindowPos: resume.WindowPos}
		if err := tracked.Seek(context.Background(), cur); err != nil {
			fatal(fmt.Errorf("checkpoint resume: %w (a data dir is bound to one source; restore the original archive or clear the ckpt-* segments)", err))
		}
		gateSkip = sum.LastSeq - resume.EventSeq
		storeStats.ResumeSeq.Store(int64(resume.EventSeq))
		storeStats.ResumeRecords.Store(int64(resume.Records))
		dlog.Info("resuming from checkpoint", "record", resume.Records,
			"bin", resume.BinEnd, "seq", resume.EventSeq, "catchup_events", gateSkip)
	} else if st != nil {
		dlog.Info("no usable checkpoint; re-ingesting from record zero")
	}
	// Serving-path telemetry: per-endpoint latency/status histograms plus
	// the SSE delivery-lag histogram, and the feed transition counters.
	httpStats := metrics.NewHTTPStats()
	feedStats := &metrics.FeedStats{}
	srvOpts := server.Options{
		Bus:       bus,
		Service:   svc,
		Ingest:    func() metrics.IngestSnapshot { return eng.Stats() },
		BinStage:  func() metrics.BinStageSnapshot { return binStage.Snapshot() },
		HTTP:      httpStats,
		Feed:      feedStats,
		FeedFloor: *feedFloor,
		Namer:     w.PoPName,
		SSEBuffer: *sseBuffer,
		Logger:    logger.With("component", "server"),
	}
	if storeStats != nil {
		srvOpts.Store = func() metrics.StoreSnapshot { return storeStats.Snapshot() }
		srvOpts.Checkpoint = func() metrics.CheckpointSnapshot { return ckptStats.Snapshot() }
	}
	if probeStats != nil {
		srvOpts.Probe = func() metrics.ProbeSnapshot { return probeStats.Snapshot() }
	}
	srv := server.New(srvOpts)

	// History accounting, all mutated on the ingest goroutine only (the
	// hooks run inside Process/Flush, so snapshot builds observe consistent
	// state). Without a store, resolved/eng.Incidents() accumulate in memory
	// as before. With one, serving pages history off the store's segment
	// files instead: only the totals live here, seeded from the recovered
	// summary, and the replay gate keeps catch-up from counting persisted
	// events twice. Should persistence fail mid-run, the post-failure
	// entries accumulate in the overlay slices and snapshots splice them
	// onto the frozen persisted prefix (overlayReader) — serve on, the
	// degraded tail in memory.
	var resolved []core.Outage
	resolvedTotal, incidentTotal := sum.ResolvedTotal, sum.IncidentTotal
	var outOverlay []core.Outage
	var incOverlay []core.Incident
	resolvedCount := func() int {
		if st != nil {
			return resolvedTotal
		}
		return len(resolved)
	}
	// traces mirrors the store's provenance retention on the serving side:
	// trace j describes resolved outage traceBase+j. Like resolved it only
	// mutates on the ingest goroutine; the gate keeps catch-up from
	// re-appending recovered traces.
	traces := sum.Traces
	traceBase := sum.TraceBase
	const traceCap = 1024
	noteTrace := func(tr core.OutageTrace) {
		idx := resolvedCount() - 1
		if idx < 0 {
			return
		}
		switch {
		case len(traces) == 0:
			traceBase = idx
		case traceBase+len(traces) != idx:
			// Alignment break (e.g. a data dir recorded without tracing):
			// restart the window at the current outage.
			traces = traces[:0]
			traceBase = idx
		}
		traces = append(traces, tr)
		if drop := len(traces) - traceCap; drop > 0 {
			traces = append(traces[:0], traces[drop:]...)
			traceBase += drop
		}
	}
	// recentOutcomes is the bounded probe-resolution log /v1/probes serves;
	// like resolved it only mutates on the ingest goroutine. It is seeded
	// from the recovered event tail so a restarted daemon shows the
	// resolutions that preceded the restart, not an empty log (the gate
	// suppresses their re-emission during catch-up).
	var recentOutcomes []core.ProbeOutcome
	const recentOutcomeCap = 64
	if sched != nil {
		for _, ev := range sum.Tail {
			if (ev.Kind == events.KindProbeConfirmed || ev.Kind == events.KindProbeExpired) && ev.Probe != nil {
				recentOutcomes = append(recentOutcomes, *ev.Probe)
			}
		}
		if len(recentOutcomes) > recentOutcomeCap {
			recentOutcomes = recentOutcomes[len(recentOutcomes)-recentOutcomeCap:]
		}
	}
	buildSnap := func(end time.Time) *server.Snapshot {
		var snap *server.Snapshot
		switch {
		case st == nil:
			snap = server.BuildSnapshot(end, eng, resolved)
		case sinkArmed.Load():
			snap = server.BuildSnapshotPaged(end, eng.OpenOutageStatuses(), st, resolvedTotal, incidentTotal)
		default:
			// Persistence failed: splice the in-memory tail onto the frozen
			// persisted prefix. Full slice expressions freeze the overlay
			// views so later ingest-goroutine appends never touch what a
			// concurrent HTTP read is paging through.
			snap = server.BuildSnapshotPaged(end, eng.OpenOutageStatuses(), overlayReader{
				st:      st,
				outs:    outOverlay[:len(outOverlay):len(outOverlay)],
				incs:    incOverlay[:len(incOverlay):len(incOverlay)],
				outBase: resolvedTotal - len(outOverlay),
				incBase: incidentTotal - len(incOverlay),
			}, resolvedTotal, incidentTotal)
		}
		snap.Traces = append([]core.OutageTrace(nil), traces...)
		snap.TraceBase = traceBase
		if fh, ok := eng.FeedHealth(end); ok {
			snap.Feeds = &fh
		}
		if sched != nil {
			snap.Pending = eng.PendingConfirmations()
			snap.ProbeOutcomes = append([]core.ProbeOutcome(nil), recentOutcomes...)
			probeStats.Pending.Store(int64(len(snap.Pending)))
		}
		return snap
	}
	hooks := events.EngineHooks(bus)
	publishResolved := hooks.OutageResolved
	hooks.OutageResolved = func(o core.Outage) {
		publishResolved(o) // the bus sink persists first; sinkArmed is settled after
		switch {
		case st == nil:
			resolved = append(resolved, o)
		case sinkArmed.Load():
			resolvedTotal++
		default:
			resolvedTotal++
			outOverlay = append(outOverlay, o)
		}
		dlog.Info("outage resolved", "pop", o.PoP.String(), "name", w.PoPName(o.PoP),
			"start", o.Start, "end", o.End, "duration", o.Duration().Round(time.Minute),
			"ases", len(o.AffectedASes), "paths", o.DivertedPaths)
	}
	if st != nil {
		publishIncident := hooks.IncidentClassified
		hooks.IncidentClassified = func(inc core.Incident) {
			publishIncident(inc)
			incidentTotal++
			if !sinkArmed.Load() {
				incOverlay = append(incOverlay, inc)
			}
		}
	}
	publishTrace := hooks.TraceRecorded
	hooks.TraceRecorded = func(tr core.OutageTrace) {
		publishTrace(tr)
		noteTrace(tr)
	}
	publishOpened := hooks.OutageOpened
	hooks.OutageOpened = func(s core.OutageStatus) {
		publishOpened(s)
		dlog.Info("outage opened", "pop", s.PoP.String(), "name", w.PoPName(s.PoP),
			"diverted_paths", s.WaitingPaths)
	}
	if sched != nil {
		noteOutcome := func(o core.ProbeOutcome) {
			recentOutcomes = append(recentOutcomes, o)
			if len(recentOutcomes) > recentOutcomeCap {
				recentOutcomes = recentOutcomes[len(recentOutcomes)-recentOutcomeCap:]
			}
		}
		publishProbeConfirmed := hooks.ProbeConfirmed
		hooks.ProbeConfirmed = func(o core.ProbeOutcome) {
			publishProbeConfirmed(o)
			noteOutcome(o)
			switch {
			case o.Located:
				probeStats.Promoted.Add(1)
				dlog.Info("probe campaign located epicenter", "campaign", o.Pending.ID,
					"pop", o.Epicenter.String(), "name", w.PoPName(o.Epicenter), "confirmed", o.Confirmed)
			case o.Pending.Epicenter.IsValid():
				// A confirmation campaign the data plane contradicted: a
				// suppressed false positive, not a localization failure.
				probeStats.Refuted.Add(1)
			default:
				probeStats.Unlocated.Add(1)
			}
		}
		publishProbeExpired := hooks.ProbeExpired
		hooks.ProbeExpired = func(o core.ProbeOutcome) {
			publishProbeExpired(o)
			noteOutcome(o)
			probeStats.Expired.Add(1)
			dlog.Warn("probe campaign expired unanswered",
				"campaign", o.Pending.ID, "signal_pop", o.Pending.SignalPoP.String())
		}
	}
	// Feed-health transitions: count and log them on top of publication.
	// The chain sits under the replay gate like every other callback, so a
	// restart's catch-up neither double-publishes nor double-counts them.
	publishFeedDegraded := hooks.FeedDegraded
	hooks.FeedDegraded = func(tr bgpstream.FeedTransition) {
		publishFeedDegraded(tr)
		feedStats.Degraded.Add(1)
		dlog.Warn("feed degraded", "scope", tr.Scope, "collector", tr.Collector,
			"peer_as", tr.PeerAS, "last_seen", tr.LastSeen, "at", tr.At)
	}
	publishFeedRecovered := hooks.FeedRecovered
	hooks.FeedRecovered = func(tr bgpstream.FeedTransition) {
		publishFeedRecovered(tr)
		feedStats.Recovered.Add(1)
		dlog.Info("feed recovered", "scope", tr.Scope, "collector", tr.Collector,
			"peer_as", tr.PeerAS, "at", tr.At)
	}
	// Checkpoints. What must be consistent with the bin barrier is captured
	// inside the gated BinClosed hook: the engine is at the barrier, every
	// event up to here has been appended to the WAL (the bus sink runs first
	// in the chain), and the tracked source knows the in-flight record's
	// cursor. Encoding and the write + fsync belong to the saver's goroutine,
	// which also decides which due barriers are captured (see
	// store.CheckpointSaver): ingest never waits for the disk. Failures only
	// cost recovery freshness, so they log and the checkpoint stays due.
	var saver *store.CheckpointSaver
	if st != nil {
		var lastCkptBin time.Time
		if resume != nil {
			lastCkptBin = resume.BinEnd
		}
		saver = store.NewCheckpointSaver(st, *ckptIv, lastCkptBin, ckptStats, dlog)
	}
	captureCheckpoint := func() (*store.CheckpointCapture, error) {
		c, err := eng.Checkpoint()
		if err != nil {
			return nil, err
		}
		cur := tracked.Cursor() // position after the in-flight record
		switch c.Records {
		case cur.Records - 1:
			// Mid-Process: the in-flight record is not in the checkpoint, so
			// recovery must re-read it.
			cur = tracked.LastCursor()
		case cur.Records:
			// Flush-time barrier: everything consumed is included.
		default:
			return nil, fmt.Errorf("engine at record %d and source cursor at %d diverged", c.Records, cur.Records)
		}
		return &store.CheckpointCapture{
			Checkpoint: store.Checkpoint{
				EventSeq:  bus.Seq(),
				Records:   c.Records,
				Window:    cur.Window,
				WindowPos: cur.WindowPos,
			},
			State: c,
		}, nil
	}
	publishBin := hooks.BinClosed
	hooks.BinClosed = func(end time.Time) {
		publishBin(end)
		srv.PublishSnapshot(buildSnap(end))
		// sinkArmed, not st != nil: once an append has failed the durable
		// horizon is frozen, a checkpoint taken past it is refused at boot
		// (its EventSeq is ahead of the WAL), and saving two of them would
		// rotate out both generations a restart can still use. A save already
		// in flight was captured below the horizon and may finish.
		if sinkArmed.Load() {
			saver.Barrier(end, tracked.Ended(), captureCheckpoint)
		}
	}
	// Recovery replays the source from the checkpoint cursor (or record
	// zero without one; detection is deterministic), suppressing the
	// gateSkip callbacks whose events are already persisted and published;
	// publication, persistence and the SSE sequence resume exactly where
	// the previous process stopped.
	finalHooks := events.GateHooks(hooks, gateSkip)
	if st != nil {
		finalHooks = events.MuteHooks(finalHooks, aborting.Load)
		// Serve the recovered history immediately — catch-up publishes its
		// first live snapshot only after re-ingestion crosses the durable
		// horizon. Probe campaigns that were mid-flight at the previous
		// shutdown surface right away; the deterministic catch-up re-parks
		// and re-measures them behind the gate.
		bootSnap := server.BuildSnapshotPaged(sum.LastBin, nil, st, sum.ResolvedTotal, sum.IncidentTotal)
		bootSnap.Traces = sum.Traces
		bootSnap.TraceBase = sum.TraceBase
		switch {
		case len(sum.PendingProbes) > 0 && sched == nil:
			// The data dir was written by a probing run but this one has no
			// backend: the recovered campaigns can never resolve, and the
			// probe-free catch-up will not reproduce the persisted event
			// sequence. Warn loudly rather than serve stuck state.
			dlog.Warn("recovered mid-campaign confirmations dropped: this run has no -probe-backend, and replaying a probing run's data dir without one desynchronizes the replay gate",
				"pending", len(sum.PendingProbes))
		case len(sum.PendingProbes) > 0:
			bootSnap.Pending = sum.PendingProbes
			probeStats.Pending.Store(int64(len(sum.PendingProbes)))
			dlog.Info("recovered mid-campaign probe confirmations", "pending", len(sum.PendingProbes))
		}
		srv.PublishSnapshot(bootSnap)
		src = live.OnAbort(src, func() { aborting.Store(true) })
	}
	eng.SetHooks(finalHooks)

	// Opt-in profiling: the net/http/pprof endpoints go on a dedicated mux
	// and listener, so the debug surface is only reachable where -pprof-addr
	// points and never rides the public API port.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("-pprof-addr: %w", err))
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Handler: pmux}
		defer pprofSrv.Close()
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && err != http.ErrServerClosed {
				dlog.Error("pprof server failed", "error", err)
			}
		}()
		dlog.Info("pprof profiling on", "url", fmt.Sprintf("http://%s/debug/pprof/", pln.Addr()))
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			dlog.Error("http server failed", "error", err)
		}
	}()
	dlog.Info("serving", "addr", fmt.Sprintf("http://%s", ln.Addr()),
		"endpoints", "/healthz /v1/outages /v1/events")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.SetReady(true)

	// Ingest loop. The final snapshot publish happens here, on the same
	// goroutine the hooks run on.
	type outcome struct {
		res live.PumpResult
		err error
	}
	pumpDone := make(chan outcome, 1)
	go func() {
		res, err := live.Pump(ctx, src, eng)
		if saver != nil {
			// The last barrier's checkpoint is on disk before anyone is told
			// the source drained (at end of source the barriers waited for the
			// saver rather than moving on), and no save outlives the pump.
			saver.Wait()
		}
		if err == nil && st != nil {
			// What the end-of-source eng.Flush resolved was appended after the
			// last bin_closed, so it is still in the WAL buffer — and a restart
			// from a checkpoint at the end-of-archive cursor reads no record,
			// so never flushes again. Hand it to the OS before a SIGKILL can
			// lose it. (An abort appends nothing here: the hooks are muted.)
			if ferr := st.Flush(); ferr != nil {
				dlog.Error("store flush at end of source failed", "error", ferr)
			}
		}
		srv.PublishSnapshot(buildSnap(res.Last))
		pumpDone <- outcome{res, err}
	}()

	var out outcome
	select {
	case out = <-pumpDone:
		if out.err != nil && ctx.Err() == nil {
			dlog.Error("source failed", "error", out.err)
		} else {
			dlog.Info("source drained; serving results until signalled", "records", out.res.Records)
		}
		<-ctx.Done()
	case <-ctx.Done():
		dlog.Info("signal received, draining")
		out = <-pumpDone // Pump aborts promptly: the source sees ctx.Done
	}
	stop()

	// Graceful teardown: flush already ran inside Pump; close subscribers
	// (closing the bus drains the relay, which then closes its clients),
	// sync the store, stop the HTTP server, stop the shard workers.
	bus.Close()
	if st != nil {
		saver.Close()
		if err := st.Close(); err != nil {
			dlog.Error("store close failed", "error", err)
		}
	}
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		dlog.Warn("http shutdown timed out, forcing close", "error", err)
		httpSrv.Close()
	}
	eng.Close()
	dlog.Info("final ingest stats", "stats", eng.Stats())
	dlog.Info("final service stats", "stats", svc.Snapshot())
	if storeStats != nil {
		dlog.Info("final store stats", "stats", storeStats.Snapshot())
	}
	if probeStats != nil {
		dlog.Info("final probe stats", "stats", probeStats.Snapshot())
	}
	bcSnap := binStage.Snapshot()
	dlog.Info("bin-close latency", "bins", bcSnap.Total.Count,
		"mean", bcSnap.Total.Mean(), "p99", bcSnap.Total.Quantile(0.99))
	dlog.Info("bye", "outages_resolved", resolvedCount(), "incidents", len(eng.Incidents()))
}

func speedName(speed float64) string {
	if speed <= 0 {
		return "maximum speed"
	}
	return fmt.Sprintf("%gx real time", speed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keplerd:", err)
	os.Exit(1)
}
