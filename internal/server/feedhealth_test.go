package server

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/events"
	"kepler/internal/metrics"
)

func testFeedSnapshot() *bgpstream.FeedSnapshot {
	return &bgpstream.FeedSnapshot{
		At:              t0,
		Silence:         30 * time.Minute,
		CollectorsKnown: 1,
		CollectorsLive:  1,
		SessionsKnown:   4,
		SessionsLive:    1,
		Collectors: []bgpstream.FeedStatus{
			{Collector: "rrc00", LastSeen: t0.Add(-time.Minute)},
		},
		Sessions: []bgpstream.FeedStatus{
			{Collector: "rrc00", PeerAS: 11, LastSeen: t0.Add(-time.Minute)},
			{Collector: "rrc00", PeerAS: 12, LastSeen: t0.Add(-time.Hour), SilentFor: time.Hour, Degraded: true},
			{Collector: "rrc00", PeerAS: 13, LastSeen: t0.Add(-time.Hour), SilentFor: time.Hour, Degraded: true},
			{Collector: "rrc00", PeerAS: 14, LastSeen: t0.Add(-time.Hour), SilentFor: time.Hour, Degraded: true},
		},
	}
}

// TestFeedsEndpoint checks /v1/health/feeds in both configurations: 404
// without a watchdog section, the full per-session view with one.
func TestFeedsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(testSnapshot())
	getJSON(t, ts.URL+"/v1/health/feeds", http.StatusNotFound, nil)

	snap := testSnapshot()
	snap.Feeds = testFeedSnapshot()
	srv.PublishSnapshot(snap)
	var v FeedHealthView
	getJSON(t, ts.URL+"/v1/health/feeds", http.StatusOK, &v)
	if v.Coverage != 0.25 {
		t.Errorf("coverage = %v, want 0.25", v.Coverage)
	}
	if v.SilenceSeconds != (30 * time.Minute).Seconds() {
		t.Errorf("silence = %v", v.SilenceSeconds)
	}
	if len(v.Sessions) != 4 || len(v.Collectors) != 1 {
		t.Fatalf("sessions/collectors = %d/%d, want 4/1", len(v.Sessions), len(v.Collectors))
	}
	if !v.Sessions[1].Degraded || v.Sessions[1].SilentForSeconds != 3600 {
		t.Errorf("session[1] = %+v, want degraded after 3600s", v.Sessions[1])
	}
}

// TestHealthzFeedFloor checks readiness withdrawal below the coverage floor.
func TestHealthzFeedFloor(t *testing.T) {
	srv := New(Options{FeedFloor: 0.5, Heartbeat: time.Hour})
	ts := newHTTPServer(t, srv)
	srv.SetReady(true)

	// No watchdog section: the floor does not apply.
	srv.PublishSnapshot(testSnapshot())
	var body map[string]any
	getJSON(t, ts+"/healthz", http.StatusOK, &body)

	// Coverage 0.25 < floor 0.5: degraded.
	snap := testSnapshot()
	snap.Feeds = testFeedSnapshot()
	srv.PublishSnapshot(snap)
	getJSON(t, ts+"/healthz", http.StatusServiceUnavailable, &body)
	if body["status"] != "degraded" {
		t.Errorf("status = %q, want degraded", body["status"])
	}
	if body["feed_coverage"] != 0.25 {
		t.Errorf("feed_coverage = %v, want 0.25", body["feed_coverage"])
	}

	// Coverage recovers above the floor: healthy again.
	snap = testSnapshot()
	snap.Feeds = testFeedSnapshot()
	snap.Feeds.SessionsLive = 3
	srv.PublishSnapshot(snap)
	getJSON(t, ts+"/healthz", http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Errorf("status = %q, want ok", body["status"])
	}
}

// newHTTPServer is a lighter helper than newTestServer for custom Options.
func newHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestStatsServingTelemetry drives real requests and a live SSE delivery
// through an instrumented server, then checks every new /v1/stats section:
// per-endpoint latency, SSE delivery lag, per-subscriber queue depths with a
// stalled subscriber's drops, and the feed-health block.
func TestStatsServingTelemetry(t *testing.T) {
	svc := &metrics.ServiceStats{}
	bus := events.New(svc)
	defer bus.Close()
	hs := metrics.NewHTTPStats()
	fs := &metrics.FeedStats{}
	fs.Degraded.Add(2)
	fs.Recovered.Add(1)
	srv := New(Options{
		Bus:       bus,
		Service:   svc,
		HTTP:      hs,
		Feed:      fs,
		Heartbeat: time.Hour,
	})
	ts := newHTTPServer(t, srv)
	snap := testSnapshot()
	snap.Feeds = testFeedSnapshot()
	srv.PublishSnapshot(snap)
	srv.SetReady(true)

	// A stalled subscriber: never drained, queue capacity 1.
	stalled := bus.Subscribe(1)
	defer stalled.Close()

	// Live SSE client.
	resp, err := http.Get(ts + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	for { // consume the opening comment
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\n" {
			break
		}
	}

	for i := 0; i < 3; i++ {
		bus.Publish(events.Event{Kind: events.KindBinClosed, Time: t0})
	}
	// Read one delivered frame so at least one lag observation lands.
	if _, err := rd.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hs.Snapshot().SSELag.Count >= 1 })

	// Some plain API traffic for the endpoint histograms.
	getJSON(t, ts+"/v1/outages", http.StatusOK, nil)
	getJSON(t, ts+"/v1/outages", http.StatusOK, nil)
	http.Get(ts + "/nope") // unmatched route

	var sv StatsView
	getJSON(t, ts+"/v1/stats", http.StatusOK, &sv)

	if sv.HTTP == nil {
		t.Fatal("stats missing http section")
	}
	byEndpoint := map[string]EndpointView{}
	for _, e := range sv.HTTP.Endpoints {
		byEndpoint[e.Endpoint] = e
	}
	if e, ok := byEndpoint["GET /v1/outages"]; !ok || e.Latency.Count != 2 || e.Statuses["2xx"] != 2 {
		t.Errorf("outages endpoint stats = %+v", byEndpoint["GET /v1/outages"])
	}
	if _, ok := byEndpoint["unmatched"]; !ok {
		t.Error("unmatched route not recorded")
	}
	if sv.HTTP.SSELag == nil || sv.HTTP.SSELag.Count < 1 {
		t.Errorf("sse lag = %+v, want >= 1 observation", sv.HTTP.SSELag)
	}

	if len(sv.Subscribers) < 2 {
		t.Fatalf("subscribers = %+v, want the stalled one and the SSE client", sv.Subscribers)
	}
	var foundStalled bool
	for _, d := range sv.Subscribers {
		if d.ID == stalled.ID() {
			foundStalled = true
			if d.Depth != 1 || d.Cap != 1 || d.Dropped != 2 {
				t.Errorf("stalled subscriber = %+v, want depth 1/1 dropped 2", d)
			}
		}
	}
	if !foundStalled {
		t.Error("stalled subscriber missing from /v1/stats")
	}

	if sv.Feeds == nil {
		t.Fatal("stats missing feeds section")
	}
	if sv.Feeds.Coverage != 0.25 || sv.Feeds.Degraded != 2 || sv.Feeds.Recovered != 1 {
		t.Errorf("feeds = %+v, want coverage 0.25, degraded 2, recovered 1", sv.Feeds)
	}
}

// TestMetricsServingExposition checks the new Prometheus series render.
func TestMetricsServingExposition(t *testing.T) {
	svc := &metrics.ServiceStats{}
	bus := events.New(svc)
	defer bus.Close()
	hs := metrics.NewHTTPStats()
	fs := &metrics.FeedStats{}
	fs.Degraded.Add(5)
	srv := New(Options{Bus: bus, Service: svc, HTTP: hs, Feed: fs, Heartbeat: time.Hour})
	ts := newHTTPServer(t, srv)
	snap := testSnapshot()
	snap.Feeds = testFeedSnapshot()
	srv.PublishSnapshot(snap)

	sub := bus.Subscribe(1)
	defer sub.Close()
	getJSON(t, ts+"/v1/outages", http.StatusOK, nil)

	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, want := range []string{
		"kepler_feed_coverage_ratio 0.25",
		"kepler_feed_sessions_known 4",
		"kepler_feed_sessions_live 1",
		"kepler_feed_collectors_known 1",
		"kepler_feed_degraded_total 5",
		"kepler_feed_recovered_total 0",
		`kepler_http_request_seconds_bucket{endpoint="GET /v1/outages"`,
		`kepler_http_request_seconds_count{endpoint="GET /v1/outages"} 1`,
		"# TYPE kepler_sse_delivery_lag_seconds histogram",
		"kepler_sse_delivery_lag_seconds_count 0",
		`kepler_sse_queue_depth{subscriber="`,
		`kepler_sse_queue_dropped_total{subscriber="`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 1s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHTTPRouteLabels pins the endpoint label of the per-route histograms:
// the registered pattern, whatever the path values, and "unmatched" for a
// request no route takes — an unknown path, or a known one with the wrong
// method. The label is looked up from the mux before the request is served
// (http.Request.Pattern would do, but not on the Go 1.22 go.mod pins).
func TestHTTPRouteLabels(t *testing.T) {
	hs := metrics.NewHTTPStats()
	srv := New(Options{HTTP: hs, Heartbeat: time.Hour})
	ts := newHTTPServer(t, srv)
	srv.PublishSnapshot(testSnapshot())
	for _, rq := range []struct {
		method, path string
		status       int
	}{
		{http.MethodGet, "/v1/outages?limit=1", http.StatusOK},
		{http.MethodGet, "/v1/outages/1/trace", http.StatusNotFound},
		{http.MethodGet, "/v1/outages/77/trace", http.StatusNotFound},
		{http.MethodPost, "/v1/outages", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v2/outages", http.StatusNotFound},
	} {
		req, err := http.NewRequest(rq.method, ts+rq.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != rq.status {
			t.Errorf("%s %s: status %d, want %d", rq.method, rq.path, resp.StatusCode, rq.status)
		}
	}
	got := map[string]int64{}
	for _, e := range hs.Snapshot().Endpoints {
		got[e.Endpoint] = e.Latency.Count
	}
	want := map[string]int64{"GET /v1/outages": 1, "GET /v1/outages/{id}/trace": 2, "unmatched": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("requests per endpoint label = %v, want %v", got, want)
	}
}
