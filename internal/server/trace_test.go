package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/metrics"
)

// tracedSnapshot extends testSnapshot with an evidence chain for its one
// resolved outage.
func tracedSnapshot() *Snapshot {
	snap := testSnapshot()
	o := snap.Resolved[0]
	snap.Traces = []core.OutageTrace{{
		Version: core.TraceVersion, PoP: o.PoP, Start: o.Start, End: o.End, Merged: o.Merged,
		Chapters: []core.TraceChapter{{
			Bin: o.End, SignalPoP: o.SignalPoP, Kind: "pop", Epicenter: o.PoP,
			Signals: []core.TraceSignal{{
				Near: 11, Diverted: 5, Stable: 40,
				Paths: []core.TraceDivertedPath{{
					Vantage: 7, Prefix: "10.0.0.0/24", Near: 11, Far: 12,
					OldPath: []bgp.ASN{7, 11, 12},
				}},
			}},
			Steps: []core.TraceStep{{
				Stage: "localize", Outcome: "chosen",
				Candidates: []colo.PoP{o.PoP, colo.FacilityPoP(8), colo.IXPPoP(2)},
				Eliminated: []colo.PoP{colo.FacilityPoP(8), colo.IXPPoP(2)},
				Chosen:     o.PoP,
			}},
		}},
	}}
	snap.TraceBase = 0
	return snap
}

func TestTraceEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(tracedSnapshot())

	var tv TraceView
	getJSON(t, ts.URL+"/v1/outages/1/trace", http.StatusOK, &tv)
	if tv.OutageID != 1 || tv.Version != core.TraceVersion {
		t.Errorf("trace header = id %d version %d", tv.OutageID, tv.Version)
	}
	if len(tv.Chapters) != 1 {
		t.Fatalf("chapters = %d, want 1", len(tv.Chapters))
	}
	ch := tv.Chapters[0]
	if len(ch.Signals) != 1 || ch.Signals[0].Diverted != 5 || len(ch.Signals[0].Paths) != 1 {
		t.Errorf("signal evidence missing: %+v", ch.Signals)
	}
	if len(ch.Steps) != 1 || len(ch.Steps[0].Candidates) != 3 || len(ch.Steps[0].Eliminated) != 2 || ch.Steps[0].Chosen == nil {
		t.Errorf("localization steps missing: %+v", ch.Steps)
	}

	// Malformed and out-of-range ids.
	getJSON(t, ts.URL+"/v1/outages/zero/trace", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/outages/0/trace", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/outages/2/trace", http.StatusNotFound, nil)
}

func TestTraceEndpointDisabledAndEvicted(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)

	// Tracing disabled: outages exist, no traces at all.
	srv.PublishSnapshot(testSnapshot())
	getJSON(t, ts.URL+"/v1/outages/1/trace", http.StatusNotFound, nil)

	// Evicted: two resolved outages but only the newer one's trace retained.
	snap := tracedSnapshot()
	o2 := snap.Resolved[0]
	o2.PoP = colo.IXPPoP(4)
	snap.Resolved = append(snap.Resolved, o2)
	snap.Traces[0].PoP = o2.PoP
	snap.TraceBase = 1
	srv.PublishSnapshot(snap)
	getJSON(t, ts.URL+"/v1/outages/1/trace", http.StatusNotFound, nil) // aged out
	var tv TraceView
	getJSON(t, ts.URL+"/v1/outages/2/trace", http.StatusOK, &tv)
	if tv.PoP.Kind != "ixp" {
		t.Errorf("retained trace pop = %+v, want the ixp epicenter", tv.PoP)
	}
}

// TestStatsAndMetricsBinClose wires a BinStageStats into the server and
// asserts both exports: the /v1/stats JSON section and the Prometheus
// histogram exposition on /metrics.
func TestStatsAndMetricsBinClose(t *testing.T) {
	stage := &metrics.BinStageStats{}
	var spans metrics.BinSpans
	spans.Total = 3 * time.Millisecond
	for i := range spans.Stage {
		spans.Stage[i] = 500 * time.Microsecond
	}
	stage.Record(spans)
	ckpt := &metrics.CheckpointStats{}
	ckpt.Ingest.Observe(400 * time.Microsecond)
	ckpt.Save.Observe(2 * time.Millisecond)
	ckpt.Save.Observe(3 * time.Millisecond)
	ckpt.Deferred.Add(5)
	ckpt.Captures.Add(3)
	ckpt.ColdRebuilds.Add(1)
	ckpt.DirtyPaths.Store(224)
	ckpt.DirtyStable.Store(300)

	srv := New(Options{
		BinStage:   func() metrics.BinStageSnapshot { return stage.Snapshot() },
		Checkpoint: func() metrics.CheckpointSnapshot { return ckpt.Snapshot() },
		Heartbeat:  time.Hour,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	srv.PublishSnapshot(testSnapshot())

	var stats StatsView
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.BinClose == nil {
		t.Fatal("stats missing bin_close section")
	}
	if stats.BinClose.Total.Count != 1 {
		t.Errorf("total count = %d, want 1", stats.BinClose.Total.Count)
	}
	for _, name := range metrics.BinStageNames {
		st, ok := stats.BinClose.Stages[name]
		if !ok {
			t.Errorf("stats missing stage %q", name)
			continue
		}
		if st.Count != 1 {
			t.Errorf("stage %q count = %d, want 1", name, st.Count)
		}
	}
	if c := stats.Checkpoint; c == nil || c.IngestDuration.Count != 1 || c.SaveDuration.Count != 2 || c.Deferred != 5 || c.Captures != 3 || c.ColdRebuilds != 1 ||
		c.DirtyPaths != 224 || c.DirtyStable != 300 {
		t.Errorf("stats checkpoint section = %+v", c)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE kepler_bin_close_seconds histogram",
		`kepler_bin_close_seconds_bucket{le="+Inf"} 1`,
		"kepler_bin_close_seconds_count 1",
		"# TYPE kepler_bin_close_stage_seconds histogram",
		`kepler_bin_close_stage_seconds_bucket{stage="classify",le="+Inf"} 1`,
		`kepler_bin_close_stage_seconds_count{stage="barrier"} 1`,
		"# TYPE kepler_checkpoint_ingest_seconds histogram",
		"kepler_checkpoint_ingest_seconds_count 1",
		"# TYPE kepler_checkpoint_save_seconds histogram",
		"kepler_checkpoint_save_seconds_count 2",
		"kepler_checkpoint_deferred_total 5",
		"kepler_checkpoint_cold_rebuilds_total 1",
		"kepler_checkpoint_last_dirty_paths 224",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Bucket counts must be cumulative: the 3ms total observation falls in
	// the le="0.005" bucket and every wider one.
	if !strings.Contains(text, `kepler_bin_close_seconds_bucket{le="0.005"} 1`) {
		t.Error(`/metrics missing cumulative le="0.005" bucket for the 3ms observation`)
	}
}
