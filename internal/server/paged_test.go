package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/metrics"
	"kepler/internal/store"
)

// buildPagedStore persists n bins of resolved outages and 2n incidents
// through a small-threshold store so history lands in sealed segments, and
// returns the store plus the equivalent in-memory history.
func buildPagedStore(t *testing.T, n int) (*store.Store, *metrics.StoreStats, []core.Outage, []core.Incident) {
	t.Helper()
	m := &metrics.StoreStats{}
	st, err := store.Open(store.Options{Dir: t.TempDir(), CompactBytes: 1, ReadCache: 8, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var outs []core.Outage
	var incs []core.Incident
	seq := uint64(0)
	add := func(ev events.Event) {
		seq++
		ev.Seq = seq
		if err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		bin := t0.Add(time.Duration(i+1) * time.Minute)
		o := core.Outage{
			PoP: colo.FacilityPoP(colo.FacilityID(i + 1)), SignalPoP: colo.FacilityPoP(colo.FacilityID(i + 1)),
			Start: bin.Add(-30 * time.Minute), End: bin,
			AffectedASes: []bgp.ASN{bgp.ASN(100 + i)}, DivertedPaths: i + 1,
		}
		i1 := core.Incident{Time: bin, Kind: core.IncidentPoP, PoP: colo.FacilityPoP(colo.FacilityID(i + 1))}
		i2 := core.Incident{Time: bin, Kind: core.IncidentLink, PoP: colo.CityPoP(2)}
		add(events.Event{Time: bin, Kind: events.KindOutageResolved, Outage: &o})
		add(events.Event{Time: bin, Kind: events.KindIncident, Incident: &i1})
		add(events.Event{Time: bin, Kind: events.KindIncident, Incident: &i2})
		add(events.Event{Time: bin, Kind: events.KindBinClosed})
		outs = append(outs, o)
		incs = append(incs, i1, i2)
	}
	return st, m, outs, incs
}

// TestDiskPagedServingEquivalence is the serving-mode contract: a server
// paging history off sealed store segments answers every cursor page —
// including kind-filtered incident scans and deep cursors — byte-equally
// to one serving the same history from in-memory slices.
func TestDiskPagedServingEquivalence(t *testing.T) {
	const n = 9
	st, m, outs, incs := buildPagedStore(t, n)

	mem := New(Options{})
	mem.PublishSnapshot(BuildSnapshotFrom(t0, nil, outs, incs))
	tsMem := httptest.NewServer(mem.Handler())
	defer tsMem.Close()

	paged := New(Options{Store: func() metrics.StoreSnapshot { return m.Snapshot() }})
	paged.PublishSnapshot(BuildSnapshotPaged(t0, nil, st, len(outs), len(incs)))
	tsPaged := httptest.NewServer(paged.Handler())
	defer tsPaged.Close()

	get := func(ts *httptest.Server, path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	paths := []string{
		"/v1/outages",
		"/v1/outages?limit=4",
		"/v1/outages?after=4&limit=3",
		fmt.Sprintf("/v1/outages?after=%d", n-1),
		fmt.Sprintf("/v1/outages?after=%d", n+5),
		"/v1/incidents",
		"/v1/incidents?limit=5",
		"/v1/incidents?after=7&limit=5",
		"/v1/incidents?kind=pop",
		"/v1/incidents?kind=link&limit=3",
		"/v1/incidents?kind=operator",
	}
	for _, p := range paths {
		if memBody, pagedBody := get(tsMem, p), get(tsPaged, p); string(memBody) != string(pagedBody) {
			t.Errorf("GET %s diverges between serving modes:\n mem   %s\n paged %s", p, memBody, pagedBody)
		}
	}

	// Deep pages really came off segment files, not resident slices.
	if m.Snapshot().SegmentReads == 0 {
		t.Error("paged serving never touched a segment file")
	}

	// Stats and /metrics report history totals, not resident-slice sizes.
	var sv StatsView
	getJSON(t, tsPaged.URL+"/v1/stats", 200, &sv)
	if sv.Resolved != n || sv.Incidents != 2*n {
		t.Errorf("paged stats totals = %d/%d, want %d/%d", sv.Resolved, sv.Incidents, n, 2*n)
	}
	mBody := get(tsPaged, "/metrics")
	wantLine := fmt.Sprintf("kepler_resolved_outages_total %d", n)
	if !contains(mBody, wantLine) {
		t.Errorf("/metrics missing %q", wantLine)
	}
	if !contains(mBody, "kepler_store_segment_reads_total") {
		t.Error("/metrics missing segment read counter")
	}
}

func contains(b []byte, sub string) bool {
	return len(b) >= len(sub) && (string(b) == sub || indexOf(b, sub) >= 0)
}

func indexOf(b []byte, sub string) int {
	for i := 0; i+len(sub) <= len(b); i++ {
		if string(b[i:i+len(sub)]) == sub {
			return i
		}
	}
	return -1
}

// TestETagNotModified pins the conditional-read contract: every published
// snapshot has one ETag; If-None-Match on an unchanged snapshot costs a
// 304 with no body, and a new publish invalidates it.
func TestETagNotModified(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(testSnapshot())

	condGet := func(path, inm string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	for _, path := range []string{"/v1/outages", "/v1/outages/open", "/v1/incidents", "/v1/probes"} {
		resp, body := condGet(path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("GET %s has no ETag", path)
		}
		resp2, body2 := condGet(path, etag)
		if resp2.StatusCode != http.StatusNotModified {
			t.Errorf("conditional GET %s = %d, want 304", path, resp2.StatusCode)
		}
		if len(body2) != 0 {
			t.Errorf("304 for %s carried a %d-byte body", path, len(body2))
		}
		// A stale ETag (different snapshot) revalidates in full.
		resp3, body3 := condGet(path, `"dead-beef"`)
		if resp3.StatusCode != http.StatusOK || string(body3) != string(body) {
			t.Errorf("mismatched If-None-Match for %s: status %d, body equal=%v",
				path, resp3.StatusCode, string(body3) == string(body))
		}
		if resp3.Header.Get("ETag") != etag {
			t.Errorf("ETag changed without a publish on %s", path)
		}
	}

	// New snapshot → new ETag; old validator now misses.
	resp, _ := condGet("/v1/outages", "")
	oldTag := resp.Header.Get("ETag")
	srv.PublishSnapshot(testSnapshot())
	resp2, _ := condGet("/v1/outages", oldTag)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("stale validator after republish = %d, want 200", resp2.StatusCode)
	}
	if newTag := resp2.Header.Get("ETag"); newTag == oldTag {
		t.Error("republish did not mint a new ETag")
	}
}

// TestPremarshalMatchesUncached pins that the cached no-query bodies are
// byte-identical to what the uncached path would serve (the memoized bytes
// are built through the same encoder).
func TestPremarshalMatchesUncached(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(bigSnapshot(6))
	read := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	// First hit memoizes; second serves the cached bytes. ?after=0 is the
	// same page but bypasses the no-query cache.
	first := read("/v1/outages")
	second := read("/v1/outages")
	uncached := read("/v1/outages?after=0")
	if first != second || first != uncached {
		t.Errorf("cached/uncached bodies diverge:\n 1st %s\n 2nd %s\n unc %s", first, second, uncached)
	}
	if a, b := read("/v1/outages/open"), read("/v1/outages/open"); a != b {
		t.Error("open body unstable across reads")
	}
	if a, b := read("/v1/incidents"), read("/v1/incidents?after=0"); a != b {
		t.Errorf("incidents cached/uncached diverge:\n %s\n %s", a, b)
	}
}

// TestSSERelayTierServing pins the relay-backed /v1/events path: many
// clients, one bus subscriber, coalesced writes preserving order, kind
// filters, and Last-Event-ID resume through the relay.
func TestSSERelayTierServing(t *testing.T) {
	svc := &metrics.ServiceStats{}
	bus := events.New(svc, events.WithRing(1024))
	relayStats := &metrics.RelayStats{}
	relay := events.NewRelay(bus, events.RelayOptions{Metrics: relayStats})
	defer relay.Close()
	srv := New(Options{Bus: bus, Relay: relay, Service: svc, HTTP: metrics.NewHTTPStats(), Heartbeat: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 5
	const n = 40
	readers := make([]*bufio.Reader, clients)
	bodies := make([]io.Closer, clients)
	for i := range readers {
		resp := sseGet(t, ts.URL+"/v1/events", 0)
		readers[i] = bufio.NewReader(resp.Body)
		bodies[i] = resp.Body
		if f, err := readFrame(readers[i]); err != nil || !f.comment {
			t.Fatalf("client %d opening frame = %+v, %v", i, f, err)
		}
	}
	defer func() {
		for _, b := range bodies {
			b.Close()
		}
	}()
	// One filtered client rides along.
	respF := sseGet(t, ts.URL+"/v1/events?kinds=outage_resolved", 0)
	defer respF.Body.Close()
	brF := bufio.NewReader(respF.Body)
	if f, err := readFrame(brF); err != nil || !f.comment {
		t.Fatalf("filtered opening frame = %+v, %v", f, err)
	}

	// All clients attached: the ingestion path still sees one subscriber.
	if st := bus.Stats(); st.Subscribers != 1 {
		t.Fatalf("bus subscribers with %d SSE clients = %d, want 1 (relay tier)", clients+1, st.Subscribers)
	}

	publishOpened(bus, n)
	bus.Publish(events.Event{Time: t0, Kind: events.KindOutageResolved, Outage: &core.Outage{
		PoP: colo.FacilityPoP(3), SignalPoP: colo.FacilityPoP(3), Start: t0.Add(-time.Hour), End: t0,
	}})

	// A burst much larger than one coalesced batch arrives in order with
	// contiguous ids on every client.
	for i, br := range readers {
		ids := collectIDs(t, br, n+1)
		for j, id := range ids {
			if id != uint64(j)+1 {
				t.Fatalf("client %d frame %d has id %d; coalescing broke ordering", i, j, id)
			}
		}
	}
	fIDs := collectIDs(t, brF, 1)
	if fIDs[0] != n+1 {
		t.Errorf("filtered client got id %d, want %d (only the resolved event)", fIDs[0], n+1)
	}

	// Resume through the relay: a new client presents Last-Event-ID and
	// receives exactly the missed suffix.
	respR := sseGet(t, ts.URL+"/v1/events", uint64(n-3))
	defer respR.Body.Close()
	brR := bufio.NewReader(respR.Body)
	if f, err := readFrame(brR); err != nil || !f.comment {
		t.Fatalf("resume opening frame = %+v, %v", f, err)
	}
	rIDs := collectIDs(t, brR, 4)
	if !reflect.DeepEqual(rIDs, []uint64{uint64(n) - 2, uint64(n) - 1, uint64(n), uint64(n) + 1}) {
		t.Errorf("relay resume ids = %v", rIDs)
	}

	// The relay tier shows up in /v1/stats with deliveries and clients.
	var sv StatsView
	getJSON(t, ts.URL+"/v1/stats", 200, &sv)
	if sv.Relay == nil {
		t.Fatal("stats missing relay section")
	}
	if sv.Relay.Clients == 0 || sv.Relay.Deliveries == 0 {
		t.Errorf("relay stats = %+v, want live clients and deliveries", sv.Relay)
	}
	if sv.Relay.UpstreamDropped != 0 {
		t.Errorf("relay upstream dropped = %d, want 0", sv.Relay.UpstreamDropped)
	}
	if sv.Bus.Subscribers != 1 {
		t.Errorf("stats bus subscribers = %d, want 1", sv.Bus.Subscribers)
	}
}

// TestSSECoalescedBurstLagObserved pins that per-event delivery lag is
// still observed per event (not per batch) after write coalescing. Lag is
// publish → completed client write, so the handler records it after the
// flush — by which time the client may already hold every frame: the
// assertion waits for the count instead of racing the handler goroutine.
func TestSSECoalescedBurstLagObserved(t *testing.T) {
	hs := metrics.NewHTTPStats()
	bus := events.New(nil)
	defer bus.Close()
	srv := New(Options{Bus: bus, HTTP: hs, Heartbeat: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := sseGet(t, ts.URL+"/v1/events", 0)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if f, err := readFrame(br); err != nil || !f.comment {
		t.Fatalf("opening frame = %+v, %v", f, err)
	}
	const n = 25
	publishOpened(bus, n)
	collectIDs(t, br, n)
	waitFor(t, func() bool { return hs.Snapshot().SSELag.Count >= n })
	if got := hs.Snapshot().SSELag.Count; got != n {
		t.Errorf("SSE lag observations = %d, want %d (one per event, coalesced or not)", got, n)
	}
}
