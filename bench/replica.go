package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/live"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/server"
	"kepler/internal/store"
)

// keplerd's flag defaults that the replica has to repeat.
const (
	resumeRing         = 4096
	checkpointInterval = 15 * time.Minute
	traceCap           = 1024
	defaultReadCache   = 4096
)

// replica is keplerd's wiring (cmd/keplerd/main.go) assembled in-process
// from the layers' exported functions, with a span around each call into a
// layer. It mirrors the archive-replay daemon: source → engine → hook chain
// → bus (→ store sink) → relay → server, snapshots and checkpoints at bin
// barriers, gated catch-up when the data dir holds history. Probing,
// logging and the degraded-persistence overlay are left out: no workload
// reaches them. It switches to daemon.Run once keplerd is a library.
type replica struct {
	tr  *tracer
	arc *os.File

	tracked *live.Tracked
	eng     *core.Engine
	bus     *events.Bus
	relay   *events.Relay
	srv     *server.Server
	http    *httptest.Server
	st      *store.Store
	sstats  *metrics.StoreStats

	// Serving-side history accounting, ingest goroutine only.
	resolved                     []core.Outage
	resolvedTotal, incidentTotal int
	traces                       []core.OutageTrace
	traceBase                    int
	lastCkptBin                  time.Time

	binClosed bool        // set by the BinClosed hook, read after Process returns
	ckptBytes []float64   // encoded checkpoint sizes
	published []time.Time // wall stamp per published seq (index seq-1), traced runs only
	resumed   bool        // a checkpoint was restored
	err       error       // first store failure inside a hook; pump returns it

	sse *sseClient
}

// timedReader puts the mrt.decode span around Reader.Next; it is the
// source handed to live.NewReplayer, so the span nests inside
// live.replayer.
type timedReader struct {
	rd *mrt.Reader
	tr *tracer
}

func (t timedReader) Next() (*mrt.Record, error) {
	t.tr.begin(spDecode)
	rec, err := t.rd.Next()
	t.tr.end()
	return rec, err
}

// newReplica boots the replica the way keplerd boots: open (and recover)
// the store when dataDir is set, restore the newest checkpoint, seek the
// source, install the gated hook chain, publish the boot snapshot.
func newReplica(wl workload, in *input, dataDir string, tr *tracer) (*replica, error) {
	r := &replica{tr: tr}
	svc := &metrics.ServiceStats{}
	var err error
	if r.arc, err = os.Open(in.Archive); err != nil {
		return nil, err
	}
	r.tracked = live.Track(live.NewReplayer(timedReader{mrt.NewReader(r.arc), tr}, 0))

	var (
		sum     store.Summary
		resume  *store.Checkpoint
		engCkpt *core.Checkpoint
	)
	busOpts := []events.Option{events.WithRing(resumeRing)}
	stamp := func(events.Event) {
		if tr != nil {
			r.published = append(r.published, time.Now())
		}
	}
	if wl.Durable {
		readCache := defaultReadCache
		if wl.ReadCacheDiv > 0 {
			readCache = max(8, in.Ref.NumInc/wl.ReadCacheDiv)
		}
		r.sstats = &metrics.StoreStats{}
		tr.begin(spStoreOpen)
		r.st, err = store.Open(store.Options{
			Dir: dataDir, CompactBytes: 1 << 20, TailEvents: resumeRing,
			ReadCache: readCache, Metrics: r.sstats,
		})
		if err == nil {
			sum = r.st.Summary()
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		busOpts = append(busOpts, events.WithStartSeq(sum.LastSeq), events.WithSink(func(ev events.Event) {
			stamp(ev)
			tr.begin(spAppend)
			compactions := r.sstats.Compactions.Load()
			err := r.st.Append(ev)
			switch {
			case r.sstats.Compactions.Load() > compactions:
				tr.endAs(spCompaction)
			case ev.Kind == events.KindBinClosed:
				tr.endAs(spBinFlush)
			default:
				tr.end()
			}
			r.fail("store append", err) // keplerd would degrade to memory; the benchmark must not
		}))
		tr.begin(spCkptLoad)
		resume = r.st.LoadCheckpoint(func(c *store.Checkpoint) error {
			if c.EventSeq > sum.LastSeq {
				return fmt.Errorf("checkpoint seq %d ahead of durable horizon %d", c.EventSeq, sum.LastSeq)
			}
			tr.begin(spCkptDecode)
			ec, err := core.DecodeCheckpoint(c.Engine)
			tr.end()
			if err != nil {
				return err
			}
			if ec.Records != c.Records {
				return fmt.Errorf("checkpoint envelope at record %d but engine state at %d", c.Records, ec.Records)
			}
			engCkpt = ec
			return nil
		})
		tr.end()
	} else {
		busOpts = append(busOpts, events.WithSink(stamp))
	}

	r.bus = events.New(svc, busOpts...)
	r.bus.SeedRing(sum.Tail)
	r.relay = events.NewRelay(r.bus, events.RelayOptions{})
	r.eng = in.Stack.NewEngine(keplerdConfig(), 0)
	binStage := &metrics.BinStageStats{}
	r.eng.SetBinStageStats(binStage)

	gateSkip := sum.LastSeq
	if engCkpt != nil {
		tr.begin(spRestore)
		err := r.eng.RestoreFrom(engCkpt)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("checkpoint restore: %w", err)
		}
		tr.begin(spSeek)
		err = r.tracked.Seek(context.Background(), live.Cursor{Records: resume.Records})
		tr.end()
		if err != nil {
			return nil, err
		}
		gateSkip = sum.LastSeq - resume.EventSeq
		r.lastCkptBin = resume.BinEnd
		r.resumed = true
	}

	opts := server.Options{
		Bus: r.bus, Relay: r.relay, Service: svc,
		Ingest:   func() metrics.IngestSnapshot { return r.eng.Stats() },
		HTTP:     metrics.NewHTTPStats(),
		Feed:     &metrics.FeedStats{},
		Namer:    in.Stack.World.PoPName,
		BinStage: func() metrics.BinStageSnapshot { return binStage.Snapshot() },
	}
	if r.sstats != nil {
		opts.Store = func() metrics.StoreSnapshot { return r.sstats.Snapshot() }
	}
	r.srv = server.New(opts)
	r.resolvedTotal, r.incidentTotal = sum.ResolvedTotal, sum.IncidentTotal
	r.traces, r.traceBase = sum.Traces, sum.TraceBase

	hooks := events.GateHooks(r.hookChain(), gateSkip)
	if r.st != nil {
		hooks = events.MuteHooks(hooks, func() bool { return false }) // armed only by a shutdown, which never comes
	}
	r.eng.SetHooks(hooks)
	if r.st != nil {
		boot := server.BuildSnapshotPaged(sum.LastBin, nil, r.st, sum.ResolvedTotal, sum.IncidentTotal)
		boot.Traces, boot.TraceBase = sum.Traces, sum.TraceBase
		r.srv.PublishSnapshot(boot)
	}
	r.srv.SetReady(true)
	r.http = httptest.NewServer(r.srv.Handler())
	if r.sse, err = startSSE(r.http.URL); err != nil {
		return nil, err
	}
	return r, nil
}

// wrapHooks returns h with every callback run through around.
func wrapHooks(h core.Hooks, around func(call func())) core.Hooks {
	return core.Hooks{
		OutageOpened:       func(s core.OutageStatus) { around(func() { h.OutageOpened(s) }) },
		OutageUpdated:      func(s core.OutageStatus) { around(func() { h.OutageUpdated(s) }) },
		OutageResolved:     func(o core.Outage) { around(func() { h.OutageResolved(o) }) },
		IncidentClassified: func(i core.Incident) { around(func() { h.IncidentClassified(i) }) },
		BinClosed:          func(end time.Time) { around(func() { h.BinClosed(end) }) },
		ProbeRequested:     func(p core.PendingConfirmation) { around(func() { h.ProbeRequested(p) }) },
		ProbeConfirmed:     func(o core.ProbeOutcome) { around(func() { h.ProbeConfirmed(o) }) },
		ProbeExpired:       func(o core.ProbeOutcome) { around(func() { h.ProbeExpired(o) }) },
		FeedDegraded:       func(t bgpstream.FeedTransition) { around(func() { h.FeedDegraded(t) }) },
		FeedRecovered:      func(t bgpstream.FeedTransition) { around(func() { h.FeedRecovered(t) }) },
		TraceRecorded:      func(t core.OutageTrace) { around(func() { h.TraceRecorded(t) }) },
	}
}

// hookChain is keplerd's chain over events.EngineHooks: publish first, then
// the serving-side bookkeeping, and at bin close the snapshot and the
// periodic checkpoint. Publication is the inner span, the daemon's own
// callback the outer one.
func (r *replica) hookChain() core.Hooks {
	tr := r.tr
	pub := events.EngineHooks(r.bus)
	if tr != nil {
		pub = wrapHooks(pub, func(call func()) { tr.begin(spPublish); call(); tr.end() })
	}
	h := pub
	h.OutageResolved = func(o core.Outage) {
		pub.OutageResolved(o)
		if r.st == nil {
			r.resolved = append(r.resolved, o)
		} else {
			r.resolvedTotal++
		}
	}
	if r.st != nil {
		h.IncidentClassified = func(inc core.Incident) {
			pub.IncidentClassified(inc)
			r.incidentTotal++
		}
	}
	h.TraceRecorded = func(t core.OutageTrace) {
		pub.TraceRecorded(t)
		r.noteTrace(t)
	}
	h.BinClosed = func(end time.Time) {
		pub.BinClosed(end)
		r.publishSnapshot(end)
		if r.st != nil && (r.lastCkptBin.IsZero() || end.Sub(r.lastCkptBin) >= checkpointInterval) {
			r.saveCheckpoint(end)
			r.lastCkptBin = end
		}
		r.binClosed = true
		tr.closeBin()
	}
	if tr != nil {
		h = wrapHooks(h, func(call func()) { tr.begin(spHooks); call(); tr.end() })
	}
	return h
}

func (r *replica) resolvedCount() int {
	if r.st != nil {
		return r.resolvedTotal
	}
	return len(r.resolved)
}

// noteTrace mirrors keplerd's serving-side provenance window.
func (r *replica) noteTrace(t core.OutageTrace) {
	idx := r.resolvedCount() - 1
	if idx < 0 {
		return
	}
	if len(r.traces) == 0 || r.traceBase+len(r.traces) != idx {
		r.traces, r.traceBase = r.traces[:0], idx
	}
	r.traces = append(r.traces, t)
	if drop := len(r.traces) - traceCap; drop > 0 {
		r.traces = append(r.traces[:0], r.traces[drop:]...)
		r.traceBase += drop
	}
}

func (r *replica) publishSnapshot(end time.Time) {
	r.tr.begin(spSnapshot)
	var snap *server.Snapshot
	if r.st == nil {
		snap = server.BuildSnapshot(end, r.eng, r.resolved)
	} else {
		snap = server.BuildSnapshotPaged(end, r.eng.OpenOutageStatuses(), r.st, r.resolvedTotal, r.incidentTotal)
	}
	snap.Traces = append([]core.OutageTrace(nil), r.traces...)
	snap.TraceBase = r.traceBase
	if fh, ok := r.eng.FeedHealth(end); ok {
		snap.Feeds = &fh
	}
	r.srv.PublishSnapshot(snap)
	r.tr.end()
}

func (r *replica) saveCheckpoint(end time.Time) {
	r.tr.begin(spCkptCapture)
	c, err := r.eng.Checkpoint()
	r.tr.end()
	if err != nil {
		r.fail("checkpoint", err)
		return
	}
	r.tr.begin(spCkptEncode)
	enc, err := c.Encode()
	r.tr.end()
	if err != nil {
		r.fail("checkpoint encode", err)
		return
	}
	r.ckptBytes = append(r.ckptBytes, float64(len(enc)))
	// keplerd also stores the source cursor's window coordinates; an archive
	// source has none, the record offset is the whole cursor.
	r.tr.begin(spCkptSave)
	err = r.st.SaveCheckpoint(&store.Checkpoint{
		EventSeq: r.bus.Seq(), Records: c.Records, BinEnd: end, Engine: enc,
	})
	r.tr.end()
	r.fail("checkpoint save", err)
}

// fail keeps the first error a hook ran into; hooks cannot return one.
func (r *replica) fail(what string, err error) {
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("replica: %s: %w", what, err)
	}
}

// pump is live.Pump with spans: it drives the engine from the source until
// EOF or until limit records have been processed (limit <= 0: no limit),
// flushing only at EOF. at(n) is called after record n returns from
// Process, for the prefix timing of the overhead ratio.
func (r *replica) pump(limit int, at func(n int)) (records int, err error) {
	ctx := context.Background()
	var last time.Time
	r.tr.begin(spPump)
	defer r.tr.end()
	for limit <= 0 || records < limit {
		r.tr.begin(spReplayer)
		rec, err := r.tracked.Next(ctx)
		r.tr.end()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return records, err
			}
			if !last.IsZero() {
				r.tr.begin(spFlush)
				r.eng.Flush(last)
				r.tr.end()
			}
			r.publishSnapshot(last)
			return records, r.err
		}
		records++
		last = rec.Time
		r.tr.begin(spProcess)
		r.binClosed = false
		r.eng.Process(rec)
		if r.binClosed {
			r.tr.endAs(spBinClose)
		} else {
			r.tr.end()
		}
		if r.err != nil {
			return records, r.err
		}
		if at != nil {
			at(records)
		}
	}
	return records, nil
}

// close tears the replica down. kill leaves the store unflushed and
// unsynced, as a SIGKILL leaves keplerd's: what the WAL buffer held since
// the last bin close is lost, and a restart has to regenerate it.
func (r *replica) close(kill bool) {
	r.sse.stop()
	r.bus.Close()
	r.relay.Close()
	r.http.Close()
	r.eng.Close()
	if r.st != nil && !kill {
		r.st.Close()
	}
	r.arc.Close()
}
