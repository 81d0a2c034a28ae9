package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"kepler/internal/bgpstream"
	"kepler/internal/events"
	"kepler/internal/live"
	"kepler/internal/store"
)

// TestTraceSurvivesRestart is the durability half of the provenance
// contract: a tracing daemon's evidence chains are persisted through the
// store and, after a restart, the recovered history serves the same
// non-empty trace for the same outage id over /v1/outages/{id}/trace.
func TestTraceSurvivesRestart(t *testing.T) {
	stack, w, res, cfg, _ := restartScenario(t)
	cfg.Tracing = true
	dir := t.TempDir()

	// ---- Phase 1: tracing daemon ingests the whole archive and exits.
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := events.New(nil, events.WithSink(func(ev events.Event) {
		if err := st1.Append(ev); err != nil {
			t.Errorf("phase 1 append: %v", err)
		}
	}))
	eng1 := stack.NewEngine(cfg, 0)
	eng1.SetHooks(events.EngineHooks(bus1))
	if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(res.Records)), eng1); err != nil {
		t.Fatal(err)
	}
	bus1.Close()
	eng1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- Phase 2: recover and serve the traces with the outages.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hist := st2.History()
	if len(hist.Resolved) == 0 {
		t.Fatal("no resolved outages recovered; the scenario must detect something")
	}
	if len(hist.Traces) != len(hist.Resolved) || hist.TraceBase != 0 {
		t.Fatalf("recovered %d traces (base %d) for %d outages; want full 1:1 coverage",
			len(hist.Traces), hist.TraceBase, len(hist.Resolved))
	}

	srv := New(Options{Namer: w.PoPName})
	snap := BuildSnapshotFrom(hist.LastBin, nil, hist.Resolved, hist.Incidents)
	snap.Traces = hist.Traces
	snap.TraceBase = hist.TraceBase
	srv.PublishSnapshot(snap)
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i, o := range hist.Resolved {
		var tv TraceView
		getJSON(t, fmt.Sprintf("%s/v1/outages/%d/trace", ts.URL, i+1), http.StatusOK, &tv)
		if tv.OutageID != uint64(i)+1 || len(tv.Chapters) == 0 {
			t.Errorf("outage %d: trace id %d with %d chapters; want a non-empty evidence chain",
				i+1, tv.OutageID, len(tv.Chapters))
		}
		if got := srv.popView(o.PoP); !reflect.DeepEqual(tv.PoP, got) {
			t.Errorf("outage %d: trace epicenter %+v, want %+v", i+1, tv.PoP, got)
		}
		if !tv.Start.Equal(o.Start) || !tv.End.Equal(o.End) {
			t.Errorf("outage %d: trace window %v..%v, want %v..%v", i+1, tv.Start, tv.End, o.Start, o.End)
		}
	}
}
