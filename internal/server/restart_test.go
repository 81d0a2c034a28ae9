package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/live"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/probe"
	"kepler/internal/simulate"
	"kepler/internal/store"
	"kepler/internal/topology"
)

// cutSource fails with context.Canceled once the stream reaches cutoff —
// the moment a SIGTERM would interrupt an archive replay, as seen by
// live.Pump.
type cutSource struct {
	src    live.Source
	cutoff time.Time
}

func (c *cutSource) Next(ctx context.Context) (*mrt.Record, error) {
	rec, err := c.src.Next(ctx)
	if err != nil {
		return nil, err
	}
	if !rec.Time.Before(c.cutoff) {
		return nil, context.Canceled
	}
	return rec, nil
}

// sseCollect drains an SSE stream in the background, recording every event
// frame's id and payload until the stream ends (bye) or maxEvents arrived.
type sseCollect struct {
	ids   []uint64
	views []EventView
}

func collectSSE(t *testing.T, url string, lastID uint64, maxEvents int) (*sseCollect, func() *sseCollect) {
	t.Helper()
	resp := sseGet(t, url, lastID)
	br := bufio.NewReader(resp.Body)
	// Reading the opening comment synchronously guarantees the
	// subscription is registered before the caller starts publishing.
	if f, err := readFrame(br); err != nil || !f.comment {
		t.Fatalf("opening frame = %+v, %v", f, err)
	}
	c := &sseCollect{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		for maxEvents <= 0 || len(c.ids) < maxEvents {
			f, err := readFrame(br)
			if err != nil || f.event == "bye" {
				return
			}
			if f.comment {
				continue
			}
			id, err := strconv.ParseUint(f.id, 10, 64)
			if err != nil {
				t.Errorf("frame id %q: %v", f.id, err)
				return
			}
			var ev EventView
			if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
				t.Errorf("frame data: %v", err)
				return
			}
			c.ids = append(c.ids, id)
			c.views = append(c.views, ev)
		}
	}()
	return c, func() *sseCollect { <-done; return c }
}

// restartScenario builds the 14-day two-outage scenario shared by the
// restart equivalence tests: the two most trackable facilities go down in
// different halves of the archive, with link-level background churn in
// between — detection time is event driven, so without records between the
// bursts no bins close and the first outage's resolution would only
// finalize at the shutdown flush.
func restartScenario(t *testing.T) (*pipeline.Stack, *topology.World, *simulate.Result, core.Config, time.Time) {
	t.Helper()
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stack := pipeline.Build(w, 77)
	// The two most trackable facilities, taken down in different halves of
	// the scenario so both daemon lifetimes contribute outages.
	var first, second colo.FacilityID
	bestN, secondN := 0, 0
	for _, f := range stack.Map.Facilities() {
		_, n := stack.Map.Trackable(f.ID, stack.Dict.Covers)
		switch {
		case n > bestN:
			second, secondN = first, bestN
			first, bestN = f.ID, n
		case n > secondN:
			second, secondN = f.ID, n
		}
	}
	if first == 0 || second == 0 {
		t.Fatal("need two trackable facilities")
	}
	start := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(14 * 24 * time.Hour)
	evs := []simulate.Event{
		{Kind: simulate.EvFacility, Facility: first,
			Start: start.Add(5 * 24 * time.Hour), Duration: 45 * time.Minute},
		{Kind: simulate.EvFacility, Facility: second,
			Start: start.Add(10 * 24 * time.Hour), Duration: 40 * time.Minute},
	}
	for i := 0; i < 6; i++ {
		evs = append(evs, simulate.Event{
			Kind: simulate.EvLink, Link: i,
			Start:    start.Add(time.Duration(6*24+i*8) * time.Hour),
			Duration: 20 * time.Minute,
		})
	}
	res, err := simulate.Render(w, evs, start, end, simulate.RenderConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ReportUnresolved = true
	// Watchdog on: restart equivalence must hold with feed transitions in
	// the published stream (they burn gate-counted callbacks like any other
	// event kind).
	cfg.FeedSilence = 5 * time.Minute
	return stack, w, res, cfg, start
}

// TestRestartEquivalence is the durability contract of the live service: a
// daemon killed mid-archive and restarted against the same data dir must
// end up reporting exactly the resolved-outage set of one uninterrupted
// batch NewDetector run, and an SSE client that disconnected before the kill
// and reconnects after it with Last-Event-ID must observe every event
// exactly once. Run with -race: both phases overlap SSE consumption with
// ingestion, and the second phase persists while serving.
func TestRestartEquivalence(t *testing.T) {
	stack, w, res, cfg, start := restartScenario(t)
	wantOuts, wantIncs := stack.Run(res.Records, cfg, nil)
	if len(wantOuts) < 2 {
		t.Fatalf("batch reference found %d outages; need activity in both halves", len(wantOuts))
	}

	dir := t.TempDir()
	const ringSize = 1 << 14

	// ---- Phase 1: daemon runs until a "SIGTERM" cuts the source mid-archive.
	// CompactBytes: 1 compacts at every bin close, so the durable history
	// lives in sealed segments with incremental snapshot manifests — the
	// restart contract must hold with that machinery in the loop.
	stats1 := &metrics.StoreStats{}
	st1, err := store.Open(store.Options{Dir: dir, TailEvents: ringSize, CompactBytes: 1, Metrics: stats1})
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	armed.Store(true)
	bus1 := events.New(nil, events.WithRing(ringSize), events.WithSink(func(ev events.Event) {
		if !armed.Load() {
			return
		}
		if err := st1.Append(ev); err != nil {
			t.Errorf("phase 1 append: %v", err)
		}
	}))
	eng1 := stack.NewEngine(cfg, 4)
	// Serve SSE through the relay tier: equivalence must survive the extra
	// fan-out hop. The aggregate shed budget exceeds the per-client buffer
	// cap times the client count, so no event can be shed in this test.
	relay1 := events.NewRelay(bus1, events.RelayOptions{Buffer: ringSize, MaxQueued: 4 * ringSize})
	defer relay1.Close()
	srv1 := New(Options{Bus: bus1, Relay: relay1, Namer: w.PoPName, SSEBuffer: ringSize})
	var resolved1 []core.Outage
	hooks1 := events.EngineHooks(bus1)
	pubRes1 := hooks1.OutageResolved
	hooks1.OutageResolved = func(o core.Outage) { pubRes1(o); resolved1 = append(resolved1, o) }
	pubBin1 := hooks1.BinClosed
	hooks1.BinClosed = func(binEnd time.Time) {
		pubBin1(binEnd)
		srv1.PublishSnapshot(BuildSnapshot(binEnd, eng1, resolved1))
	}
	// As internal/daemon wires it: the abort mutes the hooks, so the engine's
	// shutdown flush publishes nothing and the bus sequence ends exactly at
	// the persisted horizon.
	var aborting atomic.Bool
	eng1.SetHooks(events.MuteHooks(hooks1, aborting.Load))
	ts1 := httptest.NewServer(srv1.Handler())
	srv1.SetReady(true)

	// Two SSE clients: one sees the first few events and drops — the
	// disconnect everyone hits on a flaky link — and one stays connected
	// all the way through the kill.
	const seenBeforeDisconnect = 5
	_, wait1 := collectSSE(t, ts1.URL+"/v1/events", 0, seenBeforeDisconnect)
	_, wait1b := collectSSE(t, ts1.URL+"/v1/events", 0, 0)

	// Kill between the two injected outages: the first is resolved and
	// durable, the second still ahead.
	cut := &cutSource{src: live.Adapt(bgpstream.NewSliceSource(res.Records)), cutoff: start.Add(8 * 24 * time.Hour)}
	src1 := live.OnAbort(cut, func() { armed.Store(false); aborting.Store(true) })
	if _, err := live.Pump(context.Background(), src1, eng1); err != context.Canceled {
		t.Fatalf("phase 1 pump error = %v, want context.Canceled", err)
	}
	bus1.Close()
	phase1 := *wait1()
	phase1b := *wait1b()
	ts1.Close()
	eng1.Close()
	// SIGKILL model: st1 is abandoned, never Closed. The last bin-close
	// flush is the durable horizon; the muted abort-flush kept the bus
	// sequence and the store in lockstep at that horizon.

	if len(phase1.ids) != seenBeforeDisconnect || phase1.ids[0] != 1 {
		t.Fatalf("phase 1 client ids = %v", phase1.ids)
	}
	lastID := phase1.ids[len(phase1.ids)-1]

	// ---- Phase 2: a new process recovers the dir and re-ingests.
	stats2 := &metrics.StoreStats{}
	st2, err := store.Open(store.Options{Dir: dir, TailEvents: ringSize, CompactBytes: 1, Metrics: stats2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hist := st2.History()
	// With every-bin compaction the kill usually lands just after a
	// compaction, so the WAL tail is empty and recovery comes from the
	// snapshot manifest plus sealed segments instead of WAL replay.
	if hist.LastSeq == 0 {
		t.Fatal("recovery found nothing durable; phase 1 never reached disk")
	}
	if stats1.SegmentsSealed.Load() == 0 {
		t.Fatal("phase 1 sealed no segments; the incremental-snapshot path never engaged")
	}
	if len(hist.Resolved) == 0 || len(hist.Resolved) >= len(wantOuts) {
		t.Fatalf("durable history has %d/%d outages; the cut must fall mid-history for this test to bite",
			len(hist.Resolved), len(wantOuts))
	}
	if !reflect.DeepEqual(hist.Resolved, wantOuts[:len(hist.Resolved)]) {
		t.Fatal("recovered outages are not a prefix of the batch output")
	}
	// The stay-connected client saw exactly the persisted prefix: the muted
	// shutdown flush published nothing past the durable horizon.
	if n := len(phase1b.ids); n == 0 || phase1b.ids[n-1] != hist.LastSeq {
		t.Fatalf("stay-connected client last id = %v, want durable horizon %d", phase1b.ids, hist.LastSeq)
	}
	for i, id := range phase1b.ids {
		if id != uint64(i)+1 {
			t.Fatalf("stay-connected client id %d at position %d in phase 1", id, i)
		}
	}

	bus2 := events.New(nil,
		events.WithStartSeq(hist.LastSeq),
		events.WithRing(ringSize),
		events.WithSink(func(ev events.Event) {
			if err := st2.Append(ev); err != nil {
				t.Errorf("phase 2 append: %v", err)
			}
		}))
	bus2.SeedRing(hist.Tail)
	eng2 := stack.NewEngine(cfg, 2) // different shard count: determinism is the contract
	defer eng2.Close()
	relay2 := events.NewRelay(bus2, events.RelayOptions{Buffer: ringSize, MaxQueued: 4 * ringSize})
	defer relay2.Close()
	srv2 := New(Options{Bus: bus2, Relay: relay2, Namer: w.PoPName, SSEBuffer: ringSize,
		Store: func() metrics.StoreSnapshot { return stats2.Snapshot() }})
	resolved2 := hist.Resolved
	hooks2 := events.EngineHooks(bus2)
	pubRes2 := hooks2.OutageResolved
	hooks2.OutageResolved = func(o core.Outage) { pubRes2(o); resolved2 = append(resolved2, o) }
	pubBin2 := hooks2.BinClosed
	hooks2.BinClosed = func(binEnd time.Time) {
		pubBin2(binEnd)
		srv2.PublishSnapshot(BuildSnapshot(binEnd, eng2, resolved2))
	}
	eng2.SetHooks(events.GateHooks(hooks2, hist.LastSeq))
	// Boot snapshot pages history off the recovered store's segment indexes
	// rather than resident slices, exactly as keplerd does.
	sum := st2.Summary()
	srv2.PublishSnapshot(BuildSnapshotPaged(hist.LastBin, nil, st2, sum.ResolvedTotal, sum.IncidentTotal))
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	srv2.SetReady(true)

	// The recovered history is queryable before catch-up, with the same
	// stable ids a pre-restart client paginated by.
	var bootPage pageResp
	getJSON(t, ts2.URL+"/v1/outages", 200, &bootPage)
	if bootPage.Total != len(hist.Resolved) || bootPage.Outages[0].ID != 1 {
		t.Fatalf("boot snapshot = %+v", bootPage)
	}

	// Both phase 1 clients reconnect, presenting the standard header: the
	// early-dropper from where it left off, the stay-connected one from the
	// durable horizon it observed at the kill.
	_, wait2 := collectSSE(t, ts2.URL+"/v1/events", lastID, 0)
	_, wait2b := collectSSE(t, ts2.URL+"/v1/events", hist.LastSeq, 0)

	// Re-ingest the archive from the top; EOF this time, so the final
	// flush is a real end-of-stream and stays persisted.
	pres, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(res.Records)), eng2)
	if err != nil {
		t.Fatal(err)
	}
	srv2.PublishSnapshot(BuildSnapshot(pres.Last, eng2, resolved2))
	finalSeq := bus2.Seq()
	bus2.Close()
	phase2 := *wait2()
	phase2b := *wait2b()

	// 1. Hook accumulation across the restart equals the batch run.
	if !reflect.DeepEqual(resolved2, wantOuts) {
		t.Errorf("restarted daemon resolved %d outages, batch %d; sets diverge",
			len(resolved2), len(wantOuts))
	}
	// 2. So does the durable history itself (and its incident log), i.e.
	// what yet another restart would recover.
	final := st2.History()
	if !reflect.DeepEqual(final.Resolved, wantOuts) {
		t.Errorf("durable outage history diverges from batch")
	}
	if !reflect.DeepEqual(final.Incidents, wantIncs) {
		t.Errorf("durable incident history diverges from batch (%d vs %d)",
			len(final.Incidents), len(wantIncs))
	}
	if final.LastSeq != finalSeq {
		t.Errorf("store seq %d != bus seq %d", final.LastSeq, finalSeq)
	}
	// 3. The API serves it.
	var apiOuts struct {
		Total   int          `json:"total"`
		Outages []OutageView `json:"outages"`
	}
	getJSON(t, ts2.URL+"/v1/outages", 200, &apiOuts)
	if apiOuts.Total != len(wantOuts) {
		t.Errorf("API total = %d, want %d", apiOuts.Total, len(wantOuts))
	}
	for i := range apiOuts.Outages {
		if want := srv2.outageView(uint64(i)+1, &wantOuts[i]); !reflect.DeepEqual(apiOuts.Outages[i], want) {
			t.Errorf("API outage %d diverges after restart", i)
		}
	}
	// 4. Exactly-once across the reconnect: the two connections together
	// observed the contiguous sequence 1..finalSeq with no gap or repeat.
	all := append(append([]uint64{}, phase1.ids...), phase2.ids...)
	if uint64(len(all)) != finalSeq {
		t.Fatalf("client observed %d events, bus published %d", len(all), finalSeq)
	}
	for i, id := range all {
		if id != uint64(i)+1 {
			t.Fatalf("event id %d at position %d: duplicate or gap across the reconnect", id, i)
		}
	}
	// Same for the client that stayed connected through the kill: its two
	// connections cover 1..finalSeq with no overlap and no hole.
	allB := append(append([]uint64{}, phase1b.ids...), phase2b.ids...)
	if uint64(len(allB)) != finalSeq {
		t.Fatalf("stay-connected client observed %d events, bus published %d", len(allB), finalSeq)
	}
	for i, id := range allB {
		if id != uint64(i)+1 {
			t.Fatalf("stay-connected client id %d at position %d: duplicate or gap across the restart", id, i)
		}
	}
	// 5. And the resolved payloads it saw are the batch outages, in order.
	var sawResolved []OutageView
	for _, ev := range append(append([]EventView{}, phase1.views...), phase2.views...) {
		if ev.Outage != nil {
			sawResolved = append(sawResolved, *ev.Outage)
		}
	}
	if len(sawResolved) != len(wantOuts) {
		t.Fatalf("client saw %d resolved events, want %d", len(sawResolved), len(wantOuts))
	}
	for i := range sawResolved {
		if want := srv2.outageView(0, &wantOuts[i]); !reflect.DeepEqual(sawResolved[i], want) {
			t.Errorf("resolved event %d diverges from batch", i)
		}
	}
}

// countingCut wraps cutSource, counting records delivered before the cut
// so the bounded-recovery assertion can relate the checkpoint offset to the
// kill position.
type countingCut struct {
	cutSource
	delivered int
}

func (c *countingCut) Next(ctx context.Context) (*mrt.Record, error) {
	rec, err := c.cutSource.Next(ctx)
	if err == nil {
		c.delivered++
	}
	return rec, err
}

// newSched builds a deterministic probe scheduler (unbounded budget,
// Collect-waits-all) over the scenario's simulated traceroute substrate.
func newSched(t *testing.T, stack *pipeline.Stack, res *simulate.Result) *probe.Scheduler {
	t.Helper()
	sched := probe.NewScheduler(probe.OverDataPlane(stack.NewSimDataPlane(res, 1<<30)), probe.Config{Workers: 2})
	t.Cleanup(sched.Close)
	return sched
}

// marshalEvent renders one bus event as its canonical JSON bytes for the
// byte-for-byte sequence comparison.
func marshalEvent(t *testing.T, ev events.Event) []byte {
	t.Helper()
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// uninterruptedEvents is the reference of the byte-for-byte restart tests:
// every event one uninterrupted engine run over the scenario publishes.
func uninterruptedEvents(t *testing.T, stack *pipeline.Stack, res *simulate.Result, cfg core.Config) []events.Event {
	t.Helper()
	var evs []events.Event
	bus := events.New(nil, events.WithSink(func(ev events.Event) { evs = append(evs, ev) }))
	eng := stack.NewEngine(cfg, 4)
	defer eng.Close()
	eng.SetHooks(events.EngineHooks(bus))
	if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(res.Records)), eng); err != nil {
		t.Fatal(err)
	}
	bus.Close()
	return evs
}

// gatedState parks a checkpoint's encoding — the first thing the saver's
// goroutine does with a capture — until gate closes: a save in flight for
// as long as a test needs one.
type gatedState struct {
	store.EngineState
	gate <-chan struct{}
}

func (g gatedState) AppendEncode(b []byte) ([]byte, error) {
	<-g.gate
	return g.EngineState.AppendEncode(b)
}

// saverHook is internal/daemon's checkpoint wiring as a BinClosed hook: what
// must be consistent with the barrier (engine state, event sequence, record
// cursor) is captured here, on the ingest goroutine; sv encodes and saves
// it on its own, and decides which due barriers get captured at all. wrap,
// when non-nil, stands between a capture and the saver. A capture that
// fails is a test failure, reported where the saver logs it.
func saverHook(t *testing.T, sv *store.CheckpointSaver, eng *core.Engine, bus *events.Bus, ended func() bool,
	wrap func(end time.Time, c *core.Checkpoint) store.EngineState) func(time.Time) {
	return func(end time.Time) {
		sv.Barrier(end, ended != nil && ended(), func() (*store.CheckpointCapture, error) {
			c, err := eng.Checkpoint()
			if err != nil {
				t.Errorf("checkpoint at %v: %v", end, err)
				return nil, err
			}
			cc := &store.CheckpointCapture{Checkpoint: store.Checkpoint{EventSeq: bus.Seq(), Records: c.Records}, State: c}
			if wrap != nil {
				cc.State = wrap(end, c)
			}
			return cc, nil
		})
	}
}

// saverLog is the logger the tests give a saver: a failed save is a test
// failure (the tests that provoke one read the log instead).
type saverLog struct{ t *testing.T }

func (l saverLog) Write(b []byte) (int, error) {
	l.t.Errorf("saver: %s", bytes.TrimSpace(b))
	return len(b), nil
}

func failOnSaverLog(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(saverLog{t}, nil))
}

// TestRestartEquivalenceCheckpointed extends the durability contract to
// checkpointed recovery: a daemon SIGKILLed mid-archive whose boot restores
// the newest engine checkpoint and re-ingests only the record suffix must
// publish byte-for-byte the same outage/incident/probe event sequence as
// one uninterrupted run — with the active-measurement path wired, at
// restore shard counts 1 and 4 — while the re-ingested prefix stays
// bounded by the checkpoint cadence rather than the stream length. Run
// with -race: the checkpointing phase runs a 4-shard engine plus scheduler
// workers.
func TestRestartEquivalenceCheckpointed(t *testing.T) {
	stack, _, res, cfg, start := restartScenario(t)
	const ckptInterval = 6 * time.Hour // stream time between checkpoints

	// Reference: one uninterrupted engine run, probing enabled, every
	// published event recorded.
	var refEvents []events.Event
	refBus := events.New(nil, events.WithSink(func(ev events.Event) { refEvents = append(refEvents, ev) }))
	refEng := stack.NewEngine(cfg, 4)
	refEng.SetProber(newSched(t, stack, res))
	refEng.SetHooks(events.EngineHooks(refBus))
	if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(res.Records)), refEng); err != nil {
		t.Fatal(err)
	}
	refBus.Close()
	refEng.Close()
	probeEvents, resolvedEvents := 0, 0
	for _, ev := range refEvents {
		switch ev.Kind {
		case events.KindProbeRequested, events.KindProbeConfirmed, events.KindProbeExpired:
			probeEvents++
		case events.KindOutageResolved:
			resolvedEvents++
		}
	}
	if probeEvents == 0 || resolvedEvents == 0 {
		t.Fatalf("reference run published %d probe and %d resolved events; the scenario must exercise both", probeEvents, resolvedEvents)
	}

	for _, restoreShards := range []int{1, 4} {
		t.Run(fmt.Sprintf("restore-shards=%d", restoreShards), func(t *testing.T) {
			dir := t.TempDir()

			// ---- Phase 1: checkpointing daemon, SIGKILLed mid-archive.
			// CompactBytes: 1: checkpointed recovery must compose with
			// sealed segments and incremental snapshot manifests.
			st1, err := store.Open(store.Options{Dir: dir, CompactBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			var armed atomic.Bool
			armed.Store(true)
			var persisted []events.Event
			bus1 := events.New(nil, events.WithSink(func(ev events.Event) {
				if !armed.Load() {
					return
				}
				if err := st1.Append(ev); err != nil {
					t.Errorf("phase 1 append: %v", err)
				}
				persisted = append(persisted, ev)
			}))
			eng1 := stack.NewEngine(cfg, 4)
			eng1.SetProber(newSched(t, stack, res))
			hooks1 := events.EngineHooks(bus1)
			publishBin := hooks1.BinClosed
			// As internal/daemon saves them: captured in the hook, written by the
			// saver while ingest runs on, at whatever pace this machine gives
			// the two.
			sv1 := store.NewCheckpointSaver(st1, ckptInterval, time.Time{}, nil, failOnSaverLog(t))
			checkpoint := saverHook(t, sv1, eng1, bus1, nil, nil)
			hooks1.BinClosed = func(end time.Time) {
				publishBin(end)
				checkpoint(end)
			}
			var aborting atomic.Bool
			eng1.SetHooks(events.MuteHooks(hooks1, aborting.Load))
			cut := &countingCut{cutSource: cutSource{
				src:    live.Adapt(bgpstream.NewSliceSource(res.Records)),
				cutoff: start.Add(8 * 24 * time.Hour),
			}}
			src1 := live.OnAbort(cut, func() { armed.Store(false); aborting.Store(true) })
			if _, err := live.Pump(context.Background(), src1, eng1); err != context.Canceled {
				t.Fatalf("phase 1 pump error = %v, want context.Canceled", err)
			}
			bus1.Close()
			eng1.Close()
			// SIGKILL model: st1 abandoned, never Closed — the kill lands just
			// after the save in flight, if any, finished (one that lands
			// mid-save is TestRestartSaverKilledMidSave).
			sv1.Close()

			// ---- Phase 2: recover, restore the checkpoint, re-ingest the suffix.
			stats2 := &metrics.StoreStats{}
			st2, err := store.Open(store.Options{Dir: dir, CompactBytes: 1, Metrics: stats2})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			hist := st2.History()
			if got := uint64(len(persisted)); got != hist.LastSeq {
				t.Fatalf("durable horizon %d but phase 1 published %d events", hist.LastSeq, got)
			}
			var engCkpt *core.Checkpoint
			ck := st2.LoadCheckpoint(func(c *store.Checkpoint) error {
				if c.EventSeq > hist.LastSeq {
					return fmt.Errorf("checkpoint ahead of durable horizon")
				}
				ec, err := core.DecodeCheckpoint(c.Engine)
				if err != nil {
					return err
				}
				engCkpt = ec
				return nil
			})
			if ck == nil {
				t.Fatal("no usable checkpoint recovered")
			}
			// Bounded recovery: the replayed prefix (checkpoint to kill) is a
			// sliver of the records the killed process had ingested, set by
			// the checkpoint cadence, not the stream length.
			reingested := cut.delivered - int(ck.Records)
			if reingested < 0 || reingested > cut.delivered/2 {
				t.Fatalf("checkpoint at record %d, kill at %d: replayed prefix %d is not bounded",
					ck.Records, cut.delivered, reingested)
			}
			stats2.ResumeSeq.Store(int64(ck.EventSeq))
			stats2.ResumeRecords.Store(int64(ck.Records))

			var evs2 []events.Event
			bus2 := events.New(nil,
				events.WithStartSeq(hist.LastSeq),
				events.WithSink(func(ev events.Event) {
					if err := st2.Append(ev); err != nil {
						t.Errorf("phase 2 append: %v", err)
					}
					evs2 = append(evs2, ev)
				}))
			eng2 := stack.NewEngine(cfg, restoreShards)
			defer eng2.Close()
			eng2.SetProber(newSched(t, stack, res))
			if err := eng2.RestoreFrom(engCkpt); err != nil {
				t.Fatal(err)
			}
			eng2.SetHooks(events.GateHooks(events.EngineHooks(bus2), hist.LastSeq-ck.EventSeq))
			suffix := res.Records[ck.Records:]
			if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(suffix)), eng2); err != nil {
				t.Fatal(err)
			}
			bus2.Close()
			if got := eng2.Stats().Records; got != int64(len(suffix)) {
				t.Errorf("restored engine ingested %d records, suffix has %d", got, len(suffix))
			}
			// The recovery gauges a daemon would export: resumed well past
			// record zero.
			snap := stats2.Snapshot()
			if snap.ResumeRecords == 0 || snap.ResumeSeq == 0 {
				t.Errorf("resume gauges = %d/%d, want non-zero", snap.ResumeRecords, snap.ResumeSeq)
			}

			// Byte-for-byte: the persisted prefix plus the post-restore
			// publication equals the uninterrupted run's event sequence —
			// outages, incidents, bins and probe lifecycle alike.
			all := append(append([]events.Event{}, persisted...), evs2...)
			if len(all) != len(refEvents) {
				t.Fatalf("restarted run published %d events, uninterrupted run %d", len(all), len(refEvents))
			}
			for i := range all {
				got, want := marshalEvent(t, all[i]), marshalEvent(t, refEvents[i])
				if !bytes.Equal(got, want) {
					t.Fatalf("event %d diverges across the restart:\n got  %s\n want %s", i, got, want)
				}
			}
			// And a third boot would recover the identical history.
			final := st2.History()
			if final.LastSeq != uint64(len(refEvents)) {
				t.Errorf("durable seq %d, want %d", final.LastSeq, len(refEvents))
			}
		})
	}
}

// TestDrainKillRestartKeepsFlushResolutions covers drain → SIGKILL →
// restart: the source reaches EOF with an outage still open, so the
// end-of-source flush resolves it after the last bin_closed — past the
// store's last bin-boundary flush. If that final bin close also
// checkpointed (record cursor = end of archive), the restarted daemon finds
// zero records left and live.Pump never flushes again, so whatever the
// first process left in the WAL buffer is lost for good. internal/daemon
// therefore flushes the store when Pump returns at EOF; this test mirrors
// that wiring and pins the outcome: the durable history after the kill
// equals the uninterrupted run's.
//
// It is also the end-of-source case of the checkpoint saver, at its worst:
// a checkpoint is due at every bin close and the disk is so slow that the
// first save is still in flight when the source ends, so every barrier in
// between deferred. The barriers of the end-of-source flush must wait for
// that save rather than defer to a barrier that will never come, and the
// newest checkpoint on disk once the pump is done is the last barrier's —
// an ordinary in-hook capture at the end-of-archive cursor, the one a
// daemon saving synchronously leaves.
func TestDrainKillRestartKeepsFlushResolutions(t *testing.T) {
	stack, _, res, cfg, start := restartScenario(t)
	// End the archive ten minutes into the last background link outage: the
	// facility outages before it resolve on their own, this one at the flush.
	eof := start.Add((6*24+5*8)*time.Hour + 10*time.Minute)
	var records []*mrt.Record
	for _, rec := range res.Records {
		if rec.Time.Before(eof) {
			records = append(records, rec)
		}
	}
	wantOuts, _ := stack.Run(records, cfg, nil)

	dir := t.TempDir()
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var persisted []events.Event
	bus1 := events.New(nil, events.WithSink(func(ev events.Event) {
		if err := st1.Append(ev); err != nil {
			t.Errorf("phase 1 append: %v", err)
		}
		persisted = append(persisted, ev)
	}))
	eng1 := stack.NewEngine(cfg, 4)
	hooks1 := events.EngineHooks(bus1)
	publishBin := hooks1.BinClosed
	// A checkpoint is due at every bin close, so the last one — taken inside
	// the end-of-source flush — carries the end-of-archive cursor. The disk
	// comes unstuck 20 ms after the source has ended.
	src1 := live.Track(live.NewReplayer(bgpstream.NewSliceSource(records), 0))
	stats1 := &metrics.CheckpointStats{}
	sv1 := store.NewCheckpointSaver(st1, time.Nanosecond, time.Time{}, stats1, failOnSaverLog(t))
	stuck := make(chan struct{})
	var unstick sync.Once
	checkpoint := saverHook(t, sv1, eng1, bus1, func() bool {
		if src1.Ended() {
			unstick.Do(func() { time.AfterFunc(20*time.Millisecond, func() { close(stuck) }) })
		}
		return src1.Ended()
	}, func(_ time.Time, c *core.Checkpoint) store.EngineState { return gatedState{c, stuck} })
	hooks1.BinClosed = func(end time.Time) {
		publishBin(end)
		checkpoint(end)
	}
	eng1.SetHooks(hooks1)
	if _, err := live.Pump(context.Background(), src1, eng1); err != nil {
		t.Fatal(err)
	}
	// As internal/daemon's pump goroutine does at EOF.
	sv1.Wait()
	if err := st1.Flush(); err != nil {
		t.Fatal(err)
	}
	bus1.Close()
	eng1.Close()
	// SIGKILL model: st1 abandoned, never Closed.
	sv1.Close()
	snap1 := stats1.Snapshot()
	if snap1.Deferred < 10 || snap1.Save.Count < 2 || snap1.Save.Count > snap1.Ingest.Count {
		t.Fatalf("%d barriers deferred, %d captures, %d saves: want the barriers before the end of source deferred behind the first save, those after it captured",
			snap1.Deferred, snap1.Ingest.Count, snap1.Save.Count)
	}
	n := len(persisted)
	if n == 0 || persisted[n-1].Kind == events.KindBinClosed {
		t.Fatal("no outage was open at EOF; the scenario must publish resolutions after the last bin close")
	}

	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hist := st2.History()
	var engCkpt *core.Checkpoint
	ck := st2.LoadCheckpoint(func(c *store.Checkpoint) error {
		if c.EventSeq > hist.LastSeq {
			return fmt.Errorf("checkpoint ahead of durable horizon")
		}
		ec, err := core.DecodeCheckpoint(c.Engine)
		engCkpt = ec
		return err
	})
	if ck == nil || int(ck.Records) != len(records) {
		t.Fatalf("recovered checkpoint = %+v, want one at the end-of-archive cursor %d", ck, len(records))
	}
	// The restart has nothing left to read, so nothing is ever flushed
	// again: the durable history is all there will be.
	resolved2 := hist.Resolved
	bus2 := events.New(nil, events.WithStartSeq(hist.LastSeq))
	hooks2 := events.EngineHooks(bus2)
	pubRes2 := hooks2.OutageResolved
	hooks2.OutageResolved = func(o core.Outage) { pubRes2(o); resolved2 = append(resolved2, o) }
	eng2 := stack.NewEngine(cfg, 2)
	defer eng2.Close()
	if err := eng2.RestoreFrom(engCkpt); err != nil {
		t.Fatal(err)
	}
	eng2.SetHooks(events.GateHooks(hooks2, hist.LastSeq-ck.EventSeq))
	if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(records[ck.Records:])), eng2); err != nil {
		t.Fatal(err)
	}
	bus2.Close()
	if hist.LastSeq != uint64(n) {
		t.Errorf("durable horizon %d, the drained process published %d events", hist.LastSeq, n)
	}
	if !reflect.DeepEqual(resolved2, wantOuts) {
		t.Errorf("restarted daemon serves %d resolved outages, uninterrupted run %d", len(resolved2), len(wantOuts))
	}
}

// TestRestartFromOlderCheckpointFormat is the upgrade path of the binary
// checkpoint format: the data dir of a SIGKILLed daemon holds only a
// checkpoint an older build wrote (a CRC-valid frame around the version-2
// JSON envelope). The new build must refuse it by its first bytes — counted
// in CheckpointsDiscarded and logged, never half-restored — and the daemon
// wiring then re-ingests from record zero behind the replay gate, ending at
// byte-for-byte the event sequence of one uninterrupted run.
func TestRestartFromOlderCheckpointFormat(t *testing.T) {
	stack, _, res, cfg, start := restartScenario(t)

	refEvents := uninterruptedEvents(t, stack, res, cfg)

	// ---- Phase 1: the older build, SIGKILLed mid-archive.
	dir := t.TempDir()
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	armed.Store(true)
	var persisted []events.Event
	bus1 := events.New(nil, events.WithSink(func(ev events.Event) {
		if !armed.Load() {
			return
		}
		if err := st1.Append(ev); err != nil {
			t.Errorf("phase 1 append: %v", err)
		}
		persisted = append(persisted, ev)
	}))
	eng1 := stack.NewEngine(cfg, 4)
	var aborting atomic.Bool
	eng1.SetHooks(events.MuteHooks(events.EngineHooks(bus1), aborting.Load))
	cut := &countingCut{cutSource: cutSource{
		src:    live.Adapt(bgpstream.NewSliceSource(res.Records)),
		cutoff: start.Add(8 * 24 * time.Hour),
	}}
	src1 := live.OnAbort(cut, func() { armed.Store(false); aborting.Store(true) })
	if _, err := live.Pump(context.Background(), src1, eng1); err != context.Canceled {
		t.Fatalf("phase 1 pump error = %v, want context.Canceled", err)
	}
	bus1.Close()
	eng1.Close()
	// Its one checkpoint, as store.SaveCheckpoint framed it before version
	// 3: length, CRC32C, then the JSON envelope around the JSON engine state.
	old := fmt.Sprintf(`{"event_seq":%d,"records":%d,"bin_end":"2016-01-08T23:00:00Z","engine":{"version":2,"bin_start":"2016-01-08T23:00:00Z","records":%d,"op_seq":1,"probe_seq":0,"sessions":{},"feed":{}}}`,
		len(persisted)/2, cut.delivered/2, cut.delivered/2)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(old)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum([]byte(old), crc32.MakeTable(crc32.Castagnoli)))
	seg := filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt", len(persisted)/2))
	if err := os.WriteFile(seg, append(frame, old...), 0o644); err != nil {
		t.Fatal(err)
	}

	// ---- Phase 2: the new build boots on that dir.
	stats2 := &metrics.StoreStats{}
	var logged bytes.Buffer
	st2, err := store.Open(store.Options{Dir: dir, Metrics: stats2, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hist := st2.History()
	if got := uint64(len(persisted)); got != hist.LastSeq || got == 0 {
		t.Fatalf("durable horizon %d but phase 1 published %d events", hist.LastSeq, got)
	}
	// internal/daemon's accept gate.
	ck := st2.LoadCheckpoint(func(c *store.Checkpoint) error {
		if c.EventSeq > hist.LastSeq {
			return fmt.Errorf("checkpoint ahead of durable horizon")
		}
		_, err := core.DecodeCheckpoint(c.Engine)
		return err
	})
	if ck != nil {
		t.Fatalf("an older build's checkpoint was accepted: %+v", ck)
	}
	if got := stats2.CheckpointsDiscarded.Load(); got != 1 {
		t.Errorf("CheckpointsDiscarded = %d, want 1", got)
	}
	if !strings.Contains(logged.String(), "checkpoint segment discarded") || !strings.Contains(logged.String(), filepath.Base(seg)) {
		t.Errorf("the discard was not logged: %q", logged.String())
	}

	// No checkpoint: record zero, every persisted event gated.
	var evs2 []events.Event
	bus2 := events.New(nil,
		events.WithStartSeq(hist.LastSeq),
		events.WithSink(func(ev events.Event) {
			if err := st2.Append(ev); err != nil {
				t.Errorf("phase 2 append: %v", err)
			}
			evs2 = append(evs2, ev)
		}))
	eng2 := stack.NewEngine(cfg, 2)
	defer eng2.Close()
	eng2.SetHooks(events.GateHooks(events.EngineHooks(bus2), hist.LastSeq))
	if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(res.Records)), eng2); err != nil {
		t.Fatal(err)
	}
	bus2.Close()

	all := append(append([]events.Event{}, persisted...), evs2...)
	if len(all) != len(refEvents) {
		t.Fatalf("restarted run published %d events, uninterrupted run %d", len(all), len(refEvents))
	}
	for i := range all {
		got, want := marshalEvent(t, all[i]), marshalEvent(t, refEvents[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d diverges across the restart:\n got  %s\n want %s", i, got, want)
		}
	}
	if final := st2.History(); final.LastSeq != uint64(len(refEvents)) {
		t.Errorf("durable seq %d, want %d", final.LastSeq, len(refEvents))
	}
}

// TestCheckpointingStopsWithPersistence pins what keplerd does once a WAL
// append has failed and it serves on in memory: it stops checkpointing. The
// durable horizon is frozen at the failure, so every later checkpoint would
// carry an EventSeq ahead of it and be refused at boot — and two of them
// would rotate out both generations a restart can still use, turning the
// next boot into a re-ingest from record zero. The sink fails mid-archive
// with a save in flight — captured at the last due barrier before the
// failure, so below the horizon, and free to finish — more than three
// checkpoint intervals of bins close after it, and the restart must find
// two pre-failure checkpoints, resume from the newer one (the one that was
// in flight) and end at byte-for-byte the uninterrupted event sequence.
func TestCheckpointingStopsWithPersistence(t *testing.T) {
	stack, _, res, cfg, start := restartScenario(t)
	const ckptInterval = 6 * time.Hour
	failAt := start.Add(7 * 24 * time.Hour)

	refEvents := uninterruptedEvents(t, stack, res, cfg)

	segments := func(dir string) []string {
		names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	// ---- Phase 1: the sink fails at failAt; the daemon runs on to EOF.
	dir := t.TempDir()
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var (
		armed     atomic.Bool // internal/daemon's persisting flag
		persisted []events.Event
		atFailure []string // checkpoint segments on disk when the sink failed
		dueAfter  int      // checkpoints that came due with persistence off
		inFlight  uint64   // event sequence of the capture whose save the failure overtakes
	)
	armed.Store(true)
	bus1 := events.New(nil, events.WithSink(func(ev events.Event) {
		if !armed.Load() {
			return
		}
		if !ev.Time.Before(failAt) {
			armed.Store(false) // st.Append returned an error
			atFailure = segments(dir)
			return
		}
		if err := st1.Append(ev); err != nil {
			t.Errorf("phase 1 append: %v", err)
		}
		persisted = append(persisted, ev)
	}))
	eng1 := stack.NewEngine(cfg, 4)
	hooks1 := events.EngineHooks(bus1)
	publishBin := hooks1.BinClosed
	// The save of the last checkpoint due before the failure stays in flight
	// until the source has drained; every earlier one finishes before the
	// next barrier, so the schedule up to the failure is the synchronous one.
	var lastBefore time.Time // the last barrier of that schedule before the failure
	for _, ev := range refEvents {
		if ev.Kind == events.KindBinClosed && ev.Time.Before(failAt) &&
			(lastBefore.IsZero() || ev.Time.Sub(lastBefore) >= ckptInterval) {
			lastBefore = ev.Time
		}
	}
	sv1 := store.NewCheckpointSaver(st1, ckptInterval, time.Time{}, nil, failOnSaverLog(t))
	release := make(chan struct{})
	checkpoint := saverHook(t, sv1, eng1, bus1, nil, func(end time.Time, c *core.Checkpoint) store.EngineState {
		if !end.Equal(lastBefore) {
			return c
		}
		inFlight = bus1.Seq()
		return gatedState{c, release}
	})
	var lastDue time.Time
	hooks1.BinClosed = func(end time.Time) {
		publishBin(end)
		if !armed.Load() {
			// The gate under test, as internal/daemon has it: no barrier reaches
			// the saver past the frozen horizon.
			if end.Sub(lastDue) >= ckptInterval {
				dueAfter++
				lastDue = end
			}
			return
		}
		checkpoint(end)
		if inFlight == 0 {
			sv1.Wait()
		}
		lastDue = end
	}
	eng1.SetHooks(hooks1)
	if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(res.Records)), eng1); err != nil {
		t.Fatal(err)
	}
	bus1.Close()
	eng1.Close()
	if len(atFailure) != 2 || dueAfter < 3 || inFlight == 0 {
		t.Fatalf("%d checkpoint segments at the failure, %d checkpoints due after it, save in flight at seq %d: the scenario needs 2, at least 3 and one",
			len(atFailure), dueAfter, inFlight)
	}
	if got := segments(dir); !reflect.DeepEqual(got, atFailure) {
		t.Fatalf("checkpoint segments with the overtaken save still in flight: %v, want the pair on disk at the failure %v", got, atFailure)
	}
	// The overtaken save lands (as teardown waits for it to); nothing else
	// was started. SIGKILL model: st1 abandoned, never Closed.
	close(release)
	sv1.Close()
	wantSegs := []string{atFailure[1], filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt", inFlight))}
	if got := segments(dir); !reflect.DeepEqual(got, wantSegs) {
		t.Fatalf("checkpoint segments after the run: %v, want the newer pre-failure one and the overtaken save %v", got, wantSegs)
	}

	// ---- Phase 2: restart on that dir, with internal/daemon's accept gate.
	stats2 := &metrics.StoreStats{}
	st2, err := store.Open(store.Options{Dir: dir, Metrics: stats2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hist := st2.History()
	if hist.LastSeq == 0 || hist.LastSeq > uint64(len(persisted)) {
		t.Fatalf("durable horizon %d, phase 1 appended %d events", hist.LastSeq, len(persisted))
	}
	var engCkpt *core.Checkpoint
	ck := st2.LoadCheckpoint(func(c *store.Checkpoint) error {
		if c.EventSeq > hist.LastSeq {
			return fmt.Errorf("checkpoint seq %d ahead of durable horizon %d", c.EventSeq, hist.LastSeq)
		}
		ec, err := core.DecodeCheckpoint(c.Engine)
		engCkpt = ec
		return err
	})
	if ck == nil || ck.EventSeq != inFlight || stats2.CheckpointsDiscarded.Load() != 0 {
		t.Fatalf("resumed from %+v with %d segments discarded: want the checkpoint whose save the failure overtook (seq %d), none discarded",
			ck, stats2.CheckpointsDiscarded.Load(), inFlight)
	}
	var evs2 []events.Event
	bus2 := events.New(nil,
		events.WithStartSeq(hist.LastSeq),
		events.WithSink(func(ev events.Event) {
			if err := st2.Append(ev); err != nil {
				t.Errorf("phase 2 append: %v", err)
			}
			evs2 = append(evs2, ev)
		}))
	eng2 := stack.NewEngine(cfg, 2)
	defer eng2.Close()
	if err := eng2.RestoreFrom(engCkpt); err != nil {
		t.Fatal(err)
	}
	eng2.SetHooks(events.GateHooks(events.EngineHooks(bus2), hist.LastSeq-ck.EventSeq))
	if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(res.Records[ck.Records:])), eng2); err != nil {
		t.Fatal(err)
	}
	bus2.Close()

	all := append(append([]events.Event{}, persisted[:hist.LastSeq]...), evs2...)
	if len(all) != len(refEvents) {
		t.Fatalf("restarted run published %d events, uninterrupted run %d", len(all), len(refEvents))
	}
	for i := range all {
		got, want := marshalEvent(t, all[i]), marshalEvent(t, refEvents[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d diverges across the restart:\n got  %s\n want %s", i, got, want)
		}
	}
}
