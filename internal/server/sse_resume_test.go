package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
)

func publishOpened(bus *events.Bus, n int) {
	for i := 0; i < n; i++ {
		bus.Publish(events.Event{
			Time: t0.Add(time.Duration(i) * time.Minute), Kind: events.KindOutageOpened,
			Status: &core.OutageStatus{PoP: colo.FacilityPoP(3), WaitingPaths: i + 1},
		})
	}
}

// sseGet opens an SSE stream, optionally resuming with Last-Event-ID.
func sseGet(t *testing.T, url string, lastID uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// collectIDs reads frames, skipping comments, until n events arrived.
func collectIDs(t *testing.T, br *bufio.Reader, n int) []uint64 {
	t.Helper()
	var ids []uint64
	for len(ids) < n {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("stream ended after %d/%d events: %v", len(ids), n, err)
		}
		if f.comment {
			continue
		}
		id, err := strconv.ParseUint(f.id, 10, 64)
		if err != nil {
			t.Fatalf("frame id %q: %v", f.id, err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestSSEResumeReplaysMissedEvents(t *testing.T) {
	bus := events.New(nil, events.WithRing(64))
	defer bus.Close()
	_, ts := newTestServer(t, nil, bus)

	// A first client (no Last-Event-ID: live-only) sees events 1..3, then
	// drops.
	resp := sseGet(t, ts.URL+"/v1/events", 0)
	br := bufio.NewReader(resp.Body)
	if f, err := readFrame(br); err != nil || !f.comment {
		t.Fatalf("opening frame = %+v, %v", f, err) // subscription registered
	}
	publishOpened(bus, 3)
	ids := collectIDs(t, br, 3)
	resp.Body.Close()
	if ids[2] != 3 {
		t.Fatalf("first connection ids = %v", ids)
	}

	// Events published while disconnected.
	publishOpened(bus, 4)

	// Reconnect with Last-Event-ID: 3 — the four missed events arrive as
	// backlog, then live delivery continues seamlessly.
	resp2 := sseGet(t, ts.URL+"/v1/events", 3)
	defer resp2.Body.Close()
	br2 := bufio.NewReader(resp2.Body)
	ids2 := collectIDs(t, br2, 4)
	for i, id := range ids2 {
		if id != uint64(4+i) {
			t.Fatalf("resumed ids = %v, want 4..7", ids2)
		}
	}
	publishOpened(bus, 1)
	live := collectIDs(t, br2, 1)
	if live[0] != 8 {
		t.Errorf("live event after backlog = %d, want 8", live[0])
	}

	// A Bus-only server serves all of this through its built-in relay.
	var sv StatsView
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &sv)
	if sv.Relay == nil || sv.Relay.Joins != 2 || sv.Bus.Subscribers != 1 {
		t.Errorf("stats relay = %+v, bus = %+v; want a relay section with 2 joins over 1 bus subscriber", sv.Relay, sv.Bus)
	}
}

func TestSSEResumeRespectsKindFilter(t *testing.T) {
	bus := events.New(nil, events.WithRing(64))
	defer bus.Close()
	_, ts := newTestServer(t, nil, bus)

	publishOpened(bus, 2) // seqs 1,2: outage_opened
	bus.Publish(events.Event{Time: t0, Kind: events.KindOutageResolved,
		Outage: &core.Outage{PoP: colo.FacilityPoP(3), Start: t0, End: t0.Add(time.Hour)}}) // seq 3
	publishOpened(bus, 1) // seq 4

	resp := sseGet(t, ts.URL+"/v1/events?kinds=outage_resolved", 1)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	ids := collectIDs(t, br, 1)
	if ids[0] != 3 {
		t.Fatalf("filtered resume delivered id %d, want 3 only", ids[0])
	}
	var ev EventView
	// Re-read: collectIDs discarded the payload; fetch the next event to
	// prove nothing else leaked through the filter.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if f, err := readFrame(br); err == nil && !f.comment {
			json.Unmarshal([]byte(f.data), &ev)
		}
	}()
	select {
	case <-done:
		if ev.Seq != 0 {
			t.Errorf("unexpected extra event through filter: %+v", ev)
		}
	case <-time.After(100 * time.Millisecond):
		// Blocked waiting for more events: exactly what we want.
	}
}

// TestSSEFreshClientGetsLiveOnly pins that resume is opt-in: a connection
// without Last-Event-ID never receives the replay ring — a new subscriber
// on a long-running daemon owes nothing from the past.
func TestSSEFreshClientGetsLiveOnly(t *testing.T) {
	bus := events.New(nil, events.WithRing(64))
	defer bus.Close()
	_, ts := newTestServer(t, nil, bus)
	publishOpened(bus, 5) // history a fresh client must NOT see

	resp := sseGet(t, ts.URL+"/v1/events", 0)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if f, err := readFrame(br); err != nil || !f.comment {
		t.Fatalf("opening frame = %+v, %v", f, err)
	}
	publishOpened(bus, 1) // seq 6, the first thing it should see
	f, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.comment {
		t.Fatalf("fresh client got a second comment (resume incomplete?) before any event")
	}
	if f.id != "6" {
		t.Fatalf("fresh client's first event id = %q, want 6 (ring must not replay)", f.id)
	}
}

// TestSSELaggingClientCatchesUp pins that a live client whose one-event
// queue overflows while it lags loses nothing the replay ring still holds:
// the stream re-joins after the last event it wrote, and the client reads
// every id exactly once, in order.
func TestSSELaggingClientCatchesUp(t *testing.T) {
	const ring = 20000
	bus := events.New(nil, events.WithRing(ring))
	defer bus.Close()
	srv := New(Options{Bus: bus, SSEBuffer: 1, Heartbeat: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := sseGet(t, ts.URL+"/v1/events", 0)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if f, err := readFrame(br); err != nil || !f.comment {
		t.Fatalf("opening frame = %+v, %v", f, err) // subscription registered
	}

	// Publish until the client's queue has overflowed, then some more. The
	// publisher is paced to the relay goroutine so that only the client's
	// queue, not the relay's upstream one, overflows.
	relay := srv.opts.Relay
	published := 0
	publish := func() {
		for relay.Info().UpstreamDepth > 64 {
			runtime.Gosched()
		}
		bus.Publish(events.Event{Kind: events.KindBinClosed, Time: t0})
		published++
	}
	for relay.Info().Dropped == 0 {
		if published >= ring-100 {
			t.Fatalf("no drops after %d events with a one-event queue", published)
		}
		publish()
	}
	for i := 0; i < 100; i++ {
		publish()
	}

	// A stream that lost events never delivers all of them: give up then.
	defer time.AfterFunc(10*time.Second, func() { resp.Body.Close() }).Stop()
	ids := collectIDs(t, br, published)
	for i, id := range ids {
		if id != uint64(i)+1 {
			t.Fatalf("frame %d carries id %d, want %d: the lagging client lost or repeated events", i, id, i+1)
		}
	}
	if info := relay.Info(); info.UpstreamDropped != 0 {
		t.Fatalf("relay lost %d events upstream; the test must overflow only the client queue", info.UpstreamDropped)
	}
}

func TestSSEResumeIncompleteAfterEviction(t *testing.T) {
	bus := events.New(nil, events.WithRing(2))
	defer bus.Close()
	_, ts := newTestServer(t, nil, bus)
	publishOpened(bus, 6) // ring holds 5,6 — a client at 1 missed 2..4 forever

	resp := sseGet(t, ts.URL+"/v1/events", 1)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	// Frame 1: opening comment. Frame 2: the incomplete-resume comment.
	f, err := readFrame(br)
	if err != nil || !f.comment {
		t.Fatalf("opening frame = %+v, %v", f, err)
	}
	f, err = readFrame(br)
	if err != nil || !f.comment {
		t.Fatalf("expected ': resume incomplete' comment, got %+v, %v", f, err)
	}
	// Then the oldest retained events.
	f, err = readFrame(br)
	if err != nil || f.id != "5" {
		t.Fatalf("first replayed frame = %+v, %v", f, err)
	}
}

func TestSSERejectsMalformedLastEventID(t *testing.T) {
	bus := events.New(nil, events.WithRing(4))
	defer bus.Close()
	_, ts := newTestServer(t, nil, bus)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID = %d, want 400", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Errorf("400 without JSON error body: %v %v", body, err)
	}
}
