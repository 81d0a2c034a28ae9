package server

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/events"
	"kepler/internal/metrics"
)

// goldenServer builds a server whose every Options source reports fixed
// values: no wall-clock rate, HTTP fed fixed observations, and a bus and
// relay driven into a known state (drops, sheds, a join and a leave).
func goldenServer(t *testing.T) *Server {
	t.Helper()
	hist := func(ds ...time.Duration) metrics.HistogramSnapshot {
		var h metrics.Histogram
		for _, d := range ds {
			h.Observe(d)
		}
		return h.Snapshot()
	}

	svc := &metrics.ServiceStats{}
	svc.HTTPRequests.Store(101)
	svc.HTTPErrors.Store(7)
	svc.SSEConnected.Store(5)
	svc.SSEActive.Store(2)

	bus := events.New(svc, events.WithRing(16))
	t.Cleanup(bus.Close)
	relay := events.NewRelay(bus, events.RelayOptions{MaxQueued: 2})
	bus.Subscribe(2)
	relay.Subscribe(1, nil)
	relay.Subscribe(4, nil)
	relay.Subscribe(1, nil).Close()

	hs := metrics.NewHTTPStats()
	hs.Observe("GET /v1/outages", 200, 3*time.Millisecond)
	hs.Observe("GET /v1/outages", 200, 40*time.Millisecond)
	hs.Observe("GET /v1/outages", 404, 120*time.Microsecond)
	hs.Observe("GET /v1/events", 200, 20*time.Second)
	hs.Observe("unmatched", 999, time.Millisecond)
	for _, d := range []time.Duration{2 * time.Millisecond, 7 * time.Millisecond, 300 * time.Millisecond} {
		hs.SSELag.Observe(d)
	}

	feed := &metrics.FeedStats{}
	feed.Degraded.Store(3)
	feed.Recovered.Store(2)

	// Distinct per-stage multipliers, so a series that moves to another
	// stage label shows in both goldens.
	mult := [metrics.NumBinStages]int{1, 3, 4, 5, 6}
	var bins metrics.BinStageStats
	for i := 1; i <= 3; i++ {
		spans := metrics.BinSpans{End: t0, Total: time.Duration(i) * 30 * time.Millisecond}
		for s := range spans.Stage {
			spans.Stage[s] = time.Duration(i*mult[s]) * time.Millisecond
		}
		bins.Record(spans)
	}

	srv := New(Options{
		Bus:     bus,
		Relay:   relay,
		Service: svc,
		Ingest: func() metrics.IngestSnapshot {
			return metrics.IngestSnapshot{
				Records: 1234567, Ops: 2345678, Bins: 345,
				RecordsPerSec: 98765.4321,
				BarrierTime:   1500 * time.Millisecond,
				BinLag:        4347826 * time.Nanosecond,
			}
		},
		Store: func() metrics.StoreSnapshot {
			return metrics.StoreSnapshot{
				Appends: 1, AppendedBytes: 2, Flushes: 3, Compactions: 4,
				RecoveredEvents: 5, TornTails: 6, TruncatedBytes: 7,
				CheckpointSaves: 8, CheckpointBytes: 9, CheckpointsDiscarded: 10,
				ResumeSeq: 11, ResumeRecords: 12, SegmentsSealed: 13,
				IndexWrites: 14, IndexRebuilds: 15, SegmentReads: 16,
				ReadCacheHits: 17, ReadCacheMisses: 18,
			}
		},
		Checkpoint: func() metrics.CheckpointSnapshot {
			return metrics.CheckpointSnapshot{
				Ingest:       hist(2*time.Millisecond, 9*time.Millisecond),
				Save:         hist(80*time.Millisecond, 120*time.Millisecond, 12*time.Second),
				Deferred:     21,
				Captures:     22,
				ColdRebuilds: 23,
				DirtyPaths:   24,
				DirtyStable:  25,
			}
		},
		Probe: func() metrics.ProbeSnapshot {
			return metrics.ProbeSnapshot{
				Campaigns: 31, Targets: 32, Executed: 33, CacheHits: 34,
				Deduped: 35, Denied: 36, Collected: 37, Promoted: 38,
				Refuted: 39, Unlocated: 40, Expired: 41, Pending: 42,
			}
		},
		BinStage: func() metrics.BinStageSnapshot { return bins.Snapshot() },
		HTTP:     hs,
		Feed:     feed,
	})

	// Three events: the direct subscriber (queue 2) drops one; the relay's
	// first client (queue 1) takes one and drops two; the second client
	// takes one and sheds two under the aggregate budget of 2.
	for i := 0; i < 3; i++ {
		bus.Publish(events.Event{Time: t0, Kind: events.KindBinClosed})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := relay.Info()
		if info.Deliveries+info.Dropped+info.Shed == 6 && info.UpstreamDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay never settled: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}

	snap := testSnapshot()
	snap.Feeds = &bgpstream.FeedSnapshot{
		At: t0, Silence: 10 * time.Minute,
		CollectorsKnown: 2, CollectorsLive: 1, SessionsKnown: 3, SessionsLive: 2,
		Collectors: []bgpstream.FeedStatus{
			{Collector: "rrc00", LastSeen: t0, Degraded: false},
			{Collector: "route-views2", LastSeen: t0.Add(-time.Hour), SilentFor: time.Hour, Degraded: true},
		},
		Sessions: []bgpstream.FeedStatus{
			{Collector: "rrc00", PeerAS: bgp.ASN(64500), LastSeen: t0},
			{Collector: "rrc00", PeerAS: bgp.ASN(64501), LastSeen: t0.Add(-time.Minute), SilentFor: time.Minute},
			{Collector: "route-views2", PeerAS: bgp.ASN(64502), LastSeen: t0.Add(-time.Hour), SilentFor: time.Hour, Degraded: true},
		},
	}
	srv.PublishSnapshot(snap)
	srv.SetReady(true)
	return srv
}

// render serves one GET through the route mux, bypassing Handler so the
// request itself is not counted in the HTTP telemetry it renders.
func render(t *testing.T, srv *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenStats pins the /v1/stats body byte for byte over fixed sources.
func TestGoldenStats(t *testing.T) {
	got := render(t, goldenServer(t), "/v1/stats")
	if want := readGolden(t, "stats.golden.json"); !bytes.Equal(got, want) {
		t.Errorf("/v1/stats differs from testdata/stats.golden.json\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// metricFamilies splits a text exposition into families keyed by name:
// each value is the family's HELP, TYPE and sample lines in order.
func metricFamilies(t *testing.T, body []byte) map[string]string {
	t.Helper()
	out := make(map[string]string)
	var name string
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(rest, " ")
			if _, dup := out[name]; dup {
				t.Errorf("family %s exposed twice", name)
			}
		}
		if name == "" {
			t.Fatalf("sample before any HELP line: %q", line)
		}
		out[name] += line + "\n"
	}
	return out
}

// TestGoldenMetrics pins the /metrics exposition over fixed sources: the
// same families with the same HELP, TYPE and sample lines. Family order is
// free.
func TestGoldenMetrics(t *testing.T) {
	got := metricFamilies(t, render(t, goldenServer(t), "/metrics"))
	want := metricFamilies(t, readGolden(t, "metrics.golden.txt"))
	names := make([]string, 0, len(want)+len(got))
	for n := range want {
		names = append(names, n)
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		switch g, w := got[n], want[n]; {
		case w == "":
			t.Errorf("unexpected family %s:\n%s", n, g)
		case g == "":
			t.Errorf("missing family %s:\n%s", n, w)
		case g != w:
			t.Errorf("family %s differs\ngot:\n%swant:\n%s", n, g, w)
		}
	}
}
