package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
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
	"kepler/internal/slogx"
	"kepler/internal/store"
	"kepler/internal/topology"
)

// Run validates c, builds the daemon it describes and serves until ctx is
// cancelled, then shuts down gracefully. Boot runs to the "serving" line
// whatever ctx says. Run returns the error that stopped the boot (a
// rejected Config, an unreadable archive or data dir, a port in use) and
// nil after a shutdown; a source that fails mid-run is logged and the
// results so far stay served until ctx ends.
func Run(ctx context.Context, c Config) error {
	if err := c.Validate(); err != nil {
		return err
	}
	// One root logger; every subsystem logs through a component-scoped
	// child so a single -log-format/-log-level pair governs the process.
	logger := c.Logger
	if logger == nil {
		logger = slogx.Discard()
	}
	dlog := logger.With("component", "daemon")

	tcfg := topology.DefaultConfig()
	tcfg.Seed = c.Seed
	w, err := topology.Generate(tcfg)
	if err != nil {
		return err
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
	if c.ProbeBackend != probeBackendNone {
		probeStats = &metrics.ProbeStats{}
		wdp = stack.NewWindowDataPlane(1 << 30)
		backend := probe.Backend(probe.OverDataPlane(wdp))
		if c.ProbeBackend == probeBackendSimFault {
			backend = &probe.Fault{
				Inner:    backend,
				Latency:  2 * time.Second,
				Jitter:   500 * time.Millisecond,
				LossRate: 0.05,
				Seed:     c.Seed,
			}
		}
		sched = probe.NewScheduler(backend, probe.Config{
			Workers:  4,
			Budget:   c.ProbeBudget,
			Window:   time.Hour,
			Cooldown: 5 * time.Minute,
			Metrics:  probeStats,
			Logger:   logger.With("component", "probe"),
		})
		defer sched.Close()
		dlog.Info("probe scheduler on", "backend", c.ProbeBackend, "budget_per_hour", c.ProbeBudget)
	}

	// Source. Both sources are Resumable; the Tracked wrapper remembers the
	// cursor of the in-flight record so checkpoints taken inside BinClosed
	// hooks (mid-Process) can record the exact resume position.
	var tracked *live.Tracked
	switch {
	case c.Synthetic:
		scfg := live.SyntheticConfig{Seed: c.Seed + 100, Logger: logger.With("component", "source")}
		if wdp != nil {
			scfg.OnWindow = wdp.Install
		}
		tracked = live.Track(live.NewSynthetic(w, scfg))
		dlog.Info("synthetic soak source (endless rolling windows)")
	default:
		f, err := os.Open(c.Archive)
		if err != nil {
			return err
		}
		defer f.Close()
		// Decode runs a stage ahead of ingest, on its own goroutine; it is
		// stopped before the file closes.
		ahead := live.NewReadAhead(mrt.NewReader(f))
		defer ahead.Close()
		tracked = live.Track(live.NewReplayer(ahead, c.Speed))
		dlog.Info("replaying archive", "archive", c.Archive, "speed", speedName(c.Speed))
	}
	var src live.Source = tracked

	kcfg := core.DefaultConfig()
	kcfg.Tfail = c.Tfail
	kcfg.ReportUnresolved = c.ReportUnresolved
	kcfg.Tracing = c.Trace
	kcfg.FeedSilence = c.FeedSilence

	// Staged bin-close latency: always collected (a handful of monotonic
	// clock reads per bin), exported via /v1/stats and /metrics. -slow-bin-ms
	// additionally turns outliers into structured warn reports.
	binStage := &metrics.BinStageStats{}
	if c.SlowBinMS > 0 {
		//keplervet:ignore atomicstats write-once config before the engine or server goroutines exist
		binStage.SlowBinThreshold = time.Duration(c.SlowBinMS) * time.Millisecond
		binStage.OnSlowBin = func(sp metrics.BinSpans) {
			dlog.Warn("slow bin close", slowBinAttrs(sp)...)
		}
	}

	// History. The store holds what the API serves in every mode: without
	// -data-dir it keeps it in memory only, with one it also writes it to
	// the WAL. Its sink runs synchronously on the ingest goroutine.
	svc := &metrics.ServiceStats{}
	var (
		storeStats *metrics.StoreStats
		persisting atomic.Bool // appends reach the data dir; cleared by the first failure
		resume     *store.Checkpoint
		engCkpt    *core.Checkpoint
	)
	if c.DataDir != "" {
		storeStats = &metrics.StoreStats{}
	}
	st, err := store.Open(store.Options{
		Dir:          c.DataDir,
		CompactBytes: c.CompactMB << 20,
		TailEvents:   c.ResumeRing,
		ReadCache:    c.ReadCache,
		Metrics:      storeStats,
		Logger:       logger.With("component", "store"),
	})
	if err != nil {
		return err
	}
	defer st.Close()
	// Summary, not History: recovery needs the bounded state (totals,
	// traces, pendings, event tail) — the entry histories stay on disk and
	// are paged in per request, so boot cost and resident memory do not
	// scale with how long the data dir has been accumulating.
	sum := st.Summary()
	persisting.Store(c.DataDir != "")
	busOpts := []events.Option{
		events.WithRing(c.ResumeRing),
		events.WithStartSeq(sum.LastSeq),
		events.WithSink(func(ev events.Event) {
			// Losing durability must not take down detection: the store
			// serves on from memory after a failed append. Say so loudly,
			// once; checkpointing stops with it (see hooks.BinClosed below).
			if err := st.Append(ev); err != nil && persisting.Swap(false) {
				dlog.Error("store append failed, persistence and checkpointing disabled", "error", err)
			}
		}),
	}
	if c.DataDir != "" {
		dlog.Info("history recovered", "dir", c.DataDir,
			"outages", sum.ResolvedTotal, "incidents", sum.IncidentTotal,
			"traces", len(sum.Traces), "seq", sum.LastSeq, "last_bin", sum.LastBin)

		// Newest usable engine checkpoint: structurally valid (CRC-framed),
		// version-compatible, not ahead of the durable event horizon (a
		// machine crash can persist a checkpoint whose WAL pages were lost),
		// and runnable in this configuration. Anything else falls back —
		// older checkpoint, then full re-ingest — never a partial restore.
		resume = st.LoadCheckpoint(func(ck *store.Checkpoint) error {
			if ck.EventSeq > sum.LastSeq {
				return fmt.Errorf("checkpoint seq %d ahead of durable horizon %d", ck.EventSeq, sum.LastSeq)
			}
			ec, err := core.DecodeCheckpoint(ck.Engine)
			if err != nil {
				return err
			}
			if ec.Records != ck.Records {
				return fmt.Errorf("checkpoint envelope at record %d but engine state at %d", ck.Records, ec.Records)
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
	defer bus.Close()
	bus.SeedRing(sum.Tail)
	ckptStats := &metrics.CheckpointStats{}
	newEngine := func() *core.Engine {
		e := stack.NewEngine(kcfg, c.Shards)
		e.SetBinStageStats(binStage)
		e.SetCheckpointStats(ckptStats)
		if sched != nil {
			e.SetProber(sched)
		}
		return e
	}
	eng := newEngine()
	defer func() { eng.Close() }() // eng is rebuilt if a restore fails

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
			eng = newEngine()
			resume, engCkpt = nil, nil
		}
	}
	if resume != nil {
		cur := live.Cursor{Records: resume.Records, Window: resume.Window, WindowPos: resume.WindowPos}
		if err := tracked.Seek(context.WithoutCancel(ctx), cur); err != nil {
			return fmt.Errorf("checkpoint resume: %w (a data dir is bound to one source; restore the original archive or clear the ckpt-* segments)", err)
		}
		gateSkip = sum.LastSeq - resume.EventSeq
		storeStats.ResumeSeq.Store(int64(resume.EventSeq))
		storeStats.ResumeRecords.Store(int64(resume.Records))
		dlog.Info("resuming from checkpoint", "record", resume.Records,
			"bin", resume.BinEnd, "seq", resume.EventSeq, "catchup_events", gateSkip)
	} else if c.DataDir != "" {
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
		FeedFloor: c.FeedFloor,
		Namer:     w.PoPName,
		SSEBuffer: c.SSEBuffer,
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

	// recentOutcomes is the bounded probe-resolution log /v1/probes serves;
	// it only mutates on the ingest goroutine. It is seeded
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
	// Snapshots page history off the store. Called on the ingest goroutine
	// (the hooks run inside Process/Flush), so the totals and the open set
	// describe the same bin.
	buildSnap := func(end time.Time) *server.Snapshot {
		resolved, incidents, traces, traceBase := st.Served()
		snap := server.BuildSnapshotPaged(end, eng.OpenOutageStatuses(), st, resolved, incidents)
		snap.Traces, snap.TraceBase = traces, traceBase
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
		publishResolved(o)
		dlog.Info("outage resolved", "pop", o.PoP.String(), "name", w.PoPName(o.PoP),
			"start", o.Start, "end", o.End, "duration", o.Duration().Round(time.Minute),
			"ases", len(o.AffectedASes), "paths", o.DivertedPaths)
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
	if c.DataDir != "" {
		var lastCkptBin time.Time
		if resume != nil {
			lastCkptBin = resume.BinEnd
		}
		saver = store.NewCheckpointSaver(st, c.CheckpointInterval, lastCkptBin, ckptStats, dlog)
		defer saver.Close()
	}
	captureCheckpoint := func() (*store.CheckpointCapture, error) {
		ck, err := eng.Checkpoint()
		if err != nil {
			return nil, err
		}
		cur := tracked.Cursor() // position after the in-flight record
		switch ck.Records {
		case cur.Records - 1:
			// Mid-Process: the in-flight record is not in the checkpoint, so
			// recovery must re-read it.
			cur = tracked.LastCursor()
		case cur.Records:
			// Flush-time barrier: everything consumed is included.
		default:
			return nil, fmt.Errorf("engine at record %d and source cursor at %d diverged", ck.Records, cur.Records)
		}
		return &store.CheckpointCapture{
			Checkpoint: store.Checkpoint{
				EventSeq:  bus.Seq(),
				Records:   ck.Records,
				Window:    cur.Window,
				WindowPos: cur.WindowPos,
			},
			State: ck,
		}, nil
	}
	publishBin := hooks.BinClosed
	hooks.BinClosed = func(end time.Time) {
		publishBin(end)
		srv.PublishSnapshot(buildSnap(end))
		// persisting, not -data-dir: once an append has failed the durable
		// horizon is frozen, a checkpoint taken past it is refused at boot
		// (its EventSeq is ahead of the WAL), and saving two of them would
		// rotate out both generations a restart can still use. A save already
		// in flight was captured below the horizon and may finish.
		if persisting.Load() {
			saver.Barrier(end, tracked.Ended(), captureCheckpoint)
		}
	}
	// Recovery replays the source from the checkpoint cursor (or record
	// zero without one; detection is deterministic), suppressing the
	// gateSkip callbacks whose events are already persisted and published;
	// publication, persistence and the SSE sequence resume exactly where
	// the previous process stopped.
	finalHooks := events.GateHooks(hooks, gateSkip)
	if c.DataDir != "" {
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
	}
	eng.SetHooks(finalHooks)

	// Opt-in profiling: the net/http/pprof endpoints go on a dedicated mux
	// and listener, so the debug surface is only reachable where -pprof-addr
	// points and never rides the public API port.
	if c.PprofAddr != "" {
		pln, err := net.Listen("tcp", c.PprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof-addr: %w", err)
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

	ln, err := net.Listen("tcp", c.Listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			dlog.Error("http server failed", "error", err)
		}
	}()
	addr := fmt.Sprintf("http://%s", ln.Addr())
	dlog.Info("serving", "addr", addr, "endpoints", "/healthz /v1/outages /v1/events")
	if c.Notify != nil && c.Notify.Serving != nil {
		c.Notify.Serving(addr)
	}
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
		if err == nil {
			// What the end-of-source eng.Flush resolved was appended after the
			// last bin_closed, so it is still in the WAL buffer — and a restart
			// from a checkpoint at the end-of-archive cursor reads no record,
			// so never flushes again. Hand it to the OS before a SIGKILL can
			// lose it. (A store that is not writing has nothing to flush.)
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
			if c.Notify != nil && c.Notify.Drained != nil {
				c.Notify.Drained(out.res.Records)
			}
		}
		<-ctx.Done()
	case <-ctx.Done():
		dlog.Info("signal received, draining")
		out = <-pumpDone // Pump aborts promptly: the source sees ctx.Done
	}

	// Graceful teardown: Pump flushed the engine if the source ended, and
	// only then (stopping is not an end of stream); close subscribers
	// (closing the bus drains the relay, which then closes its clients),
	// sync the store, stop the HTTP server, stop the shard workers.
	bus.Close()
	if saver != nil {
		saver.Close()
	}
	if err := st.Close(); err != nil {
		dlog.Error("store close failed", "error", err)
	}
	shCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.ShutdownTimeout)
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
	resolved, incidents, _, _ := st.Served()
	dlog.Info("bye", "outages_resolved", resolved, "incidents", incidents)
	return nil
}

func speedName(speed float64) string {
	if speed <= 0 {
		return "maximum speed"
	}
	return fmt.Sprintf("%gx real time", speed)
}

// slowBinAttrs renders one slow bin close as structured attributes: the
// bin, the total, and every instrumented stage, so the report pinpoints
// which stage (shard barrier, merge, probe collection, classification,
// baseline cleanup, hooks) ate the budget.
func slowBinAttrs(sp metrics.BinSpans) []any {
	attrs := make([]any, 0, 2*(metrics.NumBinStages+2))
	attrs = append(attrs, "bin", sp.End, "total", sp.Total)
	for i, n := range metrics.BinStageNames {
		attrs = append(attrs, n, sp.Stage[i])
	}
	return attrs
}
