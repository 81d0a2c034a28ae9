package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/metrics"
)

var t0 = time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC)

func testSnapshot() *Snapshot {
	return BuildSnapshotFrom(t0,
		[]core.OutageStatus{{
			PoP: colo.IXPPoP(9), SignalPoPs: []colo.PoP{colo.IXPPoP(9)},
			Start: t0.Add(-10 * time.Minute), LastSignal: t0,
			AffectedASes: []bgp.ASN{21, 22, 23}, WaitingPaths: 7, ReturnedPaths: 1,
		}},
		[]core.Outage{testOutage},
		[]core.Incident{
			{Time: t0, Kind: core.IncidentPoP, PoP: colo.FacilityPoP(3), SignalPoP: colo.FacilityPoP(3), AffectedASes: []bgp.ASN{11, 12}, Links: 4, Paths: 5},
			{Time: t0, Kind: core.IncidentLink, PoP: colo.CityPoP(2), SignalPoP: colo.CityPoP(2), AffectedASes: []bgp.ASN{31}, Links: 1, Paths: 1},
		},
	)
}

// testOutage is testSnapshot's one resolved outage.
var testOutage = core.Outage{
	PoP: colo.FacilityPoP(3), SignalPoP: colo.CityPoP(2),
	Start: t0.Add(-2 * time.Hour), End: t0.Add(-time.Hour),
	Confirmed: true, DataPlaneChecked: true,
	AffectedASes: []bgp.ASN{11, 12}, DivertedPaths: 5, Merged: 1,
}

func newTestServer(t *testing.T, svc *metrics.ServiceStats, bus *events.Bus) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{
		Bus:     bus,
		Service: svc,
		Ingest: func() metrics.IngestSnapshot {
			return metrics.IngestSnapshot{Records: 1234, Ops: 5678, Bins: 9}
		},
		Namer: func(p colo.PoP) string {
			if p == colo.FacilityPoP(3) {
				return "Test Facility"
			}
			return ""
		},
		Heartbeat: time.Hour, // keep pings out of framing assertions
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d (%s)", url, resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
}

func TestHealthzReadiness(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	var body map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable, &body)
	if body["status"] != "starting" {
		t.Errorf("status = %q", body["status"])
	}
	srv.SetReady(true)
	srv.PublishSnapshot(testSnapshot())
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Errorf("status = %q", body["status"])
	}
	if _, ok := body["last_bin_close"]; !ok {
		t.Error("healthz missing last_bin_close after a published snapshot")
	}
}

func TestOutagesEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(testSnapshot())

	var resp struct {
		AsOf    time.Time    `json:"as_of"`
		Count   int          `json:"count"`
		Outages []OutageView `json:"outages"`
	}
	getJSON(t, ts.URL+"/v1/outages", http.StatusOK, &resp)
	if resp.Count != 1 || len(resp.Outages) != 1 {
		t.Fatalf("count = %d, outages = %d", resp.Count, len(resp.Outages))
	}
	o := resp.Outages[0]
	if o.PoP.Ref != "facility:3" || o.PoP.Kind != "facility" || o.PoP.ID != 3 {
		t.Errorf("pop = %+v", o.PoP)
	}
	if o.PoP.Name != "Test Facility" {
		t.Errorf("namer not applied: %+v", o.PoP)
	}
	if o.SignalPoP.Ref != "city:2" {
		t.Errorf("signal pop = %+v", o.SignalPoP)
	}
	if o.DurationSeconds != 3600 {
		t.Errorf("duration = %v", o.DurationSeconds)
	}
	if !o.Confirmed || len(o.AffectedASes) != 2 || o.DivertedPaths != 5 || o.Merged != 1 {
		t.Errorf("outage view = %+v", o)
	}
	if !resp.AsOf.Equal(t0) {
		t.Errorf("as_of = %v", resp.AsOf)
	}
}

func TestOpenOutagesEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(testSnapshot())

	var resp struct {
		Count   int              `json:"count"`
		Outages []OpenOutageView `json:"outages"`
	}
	getJSON(t, ts.URL+"/v1/outages/open", http.StatusOK, &resp)
	if resp.Count != 1 {
		t.Fatalf("count = %d", resp.Count)
	}
	o := resp.Outages[0]
	if o.PoP.Ref != "ixp:9" || o.WaitingPaths != 7 || o.ReturnedPaths != 1 {
		t.Errorf("open view = %+v", o)
	}
	if len(o.SignalPoPs) != 1 || o.SignalPoPs[0].Ref != "ixp:9" {
		t.Errorf("signal pops = %+v", o.SignalPoPs)
	}
}

func TestIncidentsEndpointAndFilter(t *testing.T) {
	svc := &metrics.ServiceStats{}
	srv, ts := newTestServer(t, svc, nil)
	srv.PublishSnapshot(testSnapshot())

	var resp struct {
		Count     int            `json:"count"`
		Incidents []IncidentView `json:"incidents"`
	}
	getJSON(t, ts.URL+"/v1/incidents", http.StatusOK, &resp)
	if resp.Count != 2 {
		t.Fatalf("count = %d", resp.Count)
	}
	getJSON(t, ts.URL+"/v1/incidents?kind=pop", http.StatusOK, &resp)
	if resp.Count != 1 || resp.Incidents[0].Kind != "pop" {
		t.Fatalf("filtered = %+v", resp)
	}
	var errBody map[string]string
	getJSON(t, ts.URL+"/v1/incidents?kind=bogus", http.StatusBadRequest, &errBody)
	if errBody["error"] == "" {
		t.Error("400 without error message")
	}
	if svc.HTTPErrors.Load() != 1 {
		t.Errorf("error counter = %d", svc.HTTPErrors.Load())
	}
	if svc.HTTPRequests.Load() != 3 {
		t.Errorf("request counter = %d", svc.HTTPRequests.Load())
	}
}

func TestStatsEndpoint(t *testing.T) {
	svc := &metrics.ServiceStats{}
	bus := events.New(svc)
	defer bus.Close()
	srv, ts := newTestServer(t, svc, bus)
	srv.PublishSnapshot(testSnapshot())
	srv.SetReady(true)
	bus.Publish(events.Event{Kind: events.KindBinClosed})

	var resp StatsView
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &resp)
	if !resp.Ready || resp.OpenCount != 1 || resp.Resolved != 1 || resp.Incidents != 2 {
		t.Errorf("stats = %+v", resp)
	}
	if resp.Ingest == nil || resp.Ingest.Records != 1234 {
		t.Errorf("ingest = %+v", resp.Ingest)
	}
	if resp.Bus == nil || resp.Bus.Published != 1 {
		t.Errorf("bus = %+v", resp.Bus)
	}
	if resp.Service == nil || resp.Service.HTTPRequests < 1 {
		t.Errorf("service = %+v", resp.Service)
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	_, ts := newTestServer(t, nil, nil)
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/outages", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/outages = %d", resp.StatusCode)
	}
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id, event, data string
	comment         bool
}

// readFrame reads one SSE frame (terminated by a blank line).
func readFrame(r *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	seen := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				return f, nil
			}
		case strings.HasPrefix(line, ":"):
			f.comment, seen = true, true
		case strings.HasPrefix(line, "id: "):
			f.id, seen = line[4:], true
		case strings.HasPrefix(line, "event: "):
			f.event, seen = line[7:], true
		case strings.HasPrefix(line, "data: "):
			f.data, seen = line[6:], true
		}
	}
}

func TestSSEFraming(t *testing.T) {
	svc := &metrics.ServiceStats{}
	bus := events.New(svc)
	srv, ts := newTestServer(t, svc, bus)
	_ = srv

	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// Opening comment frame arrives before any event.
	f, err := readFrame(br)
	if err != nil || !f.comment {
		t.Fatalf("first frame = %+v, %v", f, err)
	}

	pop := colo.FacilityPoP(3)
	bus.Publish(events.Event{Time: t0, Kind: events.KindOutageOpened, Status: &core.OutageStatus{PoP: pop, WaitingPaths: 4}})
	bus.Publish(events.Event{Time: t0, Kind: events.KindOutageResolved, Outage: &core.Outage{PoP: pop, Start: t0, End: t0.Add(time.Hour)}})

	f, err = readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != "1" || f.event != "outage_opened" {
		t.Fatalf("frame = %+v", f)
	}
	var ev EventView
	if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
		t.Fatalf("data not JSON: %v (%q)", err, f.data)
	}
	if ev.Seq != 1 || ev.Kind != "outage_opened" || ev.Status == nil || ev.Status.PoP.Ref != "facility:3" {
		t.Errorf("event view = %+v", ev)
	}
	if ev.Status.PoP.Name != "Test Facility" {
		t.Errorf("namer not applied on SSE payload: %+v", ev.Status.PoP)
	}

	f, err = readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != "2" || f.event != "outage_resolved" {
		t.Fatalf("frame = %+v", f)
	}

	// Bus close ends the stream with a bye frame and EOF.
	bus.Close()
	f, err = readFrame(br)
	if err != nil || f.event != "bye" {
		t.Fatalf("closing frame = %+v, %v", f, err)
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("stream not terminated: %v", err)
	}
}

func TestSSEKindFilter(t *testing.T) {
	bus := events.New(nil)
	defer bus.Close()
	_, ts := newTestServer(t, nil, bus)

	resp, err := http.Get(ts.URL + "/v1/events?kinds=outage_resolved")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := readFrame(br); err != nil { // opening comment
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		bus.Publish(events.Event{Kind: events.KindBinClosed, Time: t0})
	}
	bus.Publish(events.Event{Kind: events.KindOutageResolved, Time: t0, Outage: &core.Outage{PoP: colo.FacilityPoP(1)}})
	f, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.event != "outage_resolved" || f.id != "6" {
		t.Fatalf("filter leaked: %+v", f)
	}
}

// TestSSEKindFilterRejectsUnknown pins ?kinds= validation: a misspelt kind
// is a 400 naming the valid kinds, not a stream that never delivers, and a
// list of known kinds still streams.
func TestSSEKindFilterRejectsUnknown(t *testing.T) {
	bus := events.New(nil)
	defer bus.Close()
	_, ts := newTestServer(t, nil, bus)

	resp, err := http.Get(ts.URL + "/v1/events?kinds=outage_resolvd")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		resp.Body.Close()
		t.Fatalf("misspelt kind: status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, k := range events.Kinds() {
		if !strings.Contains(string(body), string(k)) {
			t.Errorf("400 body does not list kind %q: %s", k, body)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/events?kinds=outage_resolved,incident")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("known kinds: status %d, want 200", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := readFrame(br); err != nil { // opening comment
		t.Fatal(err)
	}
	bus.Publish(events.Event{Kind: events.KindBinClosed, Time: t0})
	bus.Publish(events.Event{Kind: events.KindIncident, Time: t0, Incident: &core.Incident{Kind: core.IncidentLink}})
	f, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.event != "incident" || f.id != "2" {
		t.Fatalf("frame %+v, want the incident (id 2)", f)
	}
}

// TestSSEManySubscribersSlowConsumer is the acceptance scenario: 8
// concurrent SSE streams, one of which never reads. The stalled client's
// bounded relay queue overflows and its events are dropped (counted in
// /v1/stats under relay); the bus, with its single subscriber, loses
// nothing, and the reading clients keep receiving. Run with -race.
func TestSSEManySubscribersSlowConsumer(t *testing.T) {
	svc := &metrics.ServiceStats{}
	bus := events.New(svc)
	srv, ts := newTestServer(t, svc, bus)
	srv.SetReady(true)

	const readers = 7
	type tally struct {
		frames int
		lastID string
	}
	results := make([]tally, readers)
	var wg sync.WaitGroup

	// 7 live readers drain their streams until the bus closes.
	for i := 0; i < readers; i++ {
		resp, err := http.Get(ts.URL + "/v1/events")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, resp *http.Response) {
			defer wg.Done()
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			for {
				f, err := readFrame(br)
				if err != nil {
					return
				}
				if f.event == "bye" {
					return
				}
				if !f.comment {
					results[i].frames++
					results[i].lastID = f.id
				}
			}
		}(i, resp)
	}

	// The slow consumer opens the stream and never reads past the headers.
	slow, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}

	// Wait until all 8 handlers joined the relay.
	relay := srv.opts.Relay
	deadline := time.Now().Add(5 * time.Second)
	for relay.Info().Clients < readers+1 {
		if time.Now().After(deadline) {
			t.Fatalf("relay clients = %d, want %d", relay.Info().Clients, readers+1)
		}
		time.Sleep(time.Millisecond)
	}

	// Publish until the stalled client demonstrably dropped events. The
	// publisher never blocks (that is the point of the bounded queues), so
	// it is paced to the relay goroutine — outrunning the fan-out would
	// overflow the upstream queue, a different loss than the one under
	// test — and the cap only guards against a regression.
	const maxEvents = 500000
	published := 0
	for relay.Info().Dropped == 0 {
		if published >= maxEvents {
			t.Fatal("no drops after 500k events: queues unbounded?")
		}
		for relay.Info().UpstreamDepth > 64 {
			runtime.Gosched()
		}
		bus.Publish(events.Event{Kind: events.KindBinClosed, Time: t0})
		published++
	}

	var stats StatsView
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Relay == nil || stats.Relay.Dropped == 0 {
		t.Fatalf("client drops not reported in /v1/stats: %+v", stats.Relay)
	}
	if stats.Relay.UpstreamDropped != 0 {
		t.Errorf("relay lost %d events upstream of the stalled client", stats.Relay.UpstreamDropped)
	}
	if stats.Service.SSEActive != readers+1 {
		t.Errorf("sse_active = %d, want %d", stats.Service.SSEActive, readers+1)
	}
	if stats.Bus == nil || stats.Bus.Subscribers != 1 || stats.Bus.Dropped != 0 {
		t.Errorf("bus = %+v, want one subscriber and no drops", stats.Bus)
	}

	// Release everything: kill the stalled connection, close the bus, and
	// let the readers drain to their bye frames.
	slow.Body.Close()
	bus.Close()
	wg.Wait()
	for i, r := range results {
		if r.frames == 0 {
			t.Errorf("reader %d starved while slow consumer stalled", i)
		}
	}
}
