package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/server"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

// testConfig is keplerd's default configuration over an archive, on an
// ephemeral port.
func testConfig(archive string) Config {
	return Config{
		Seed: 1, Archive: archive, Listen: "127.0.0.1:0",
		Tfail: 0.10, ReportUnresolved: true, Shards: 2, Trace: true,
		FeedSilence: 30 * time.Minute,
		SSEBuffer:   256, ShutdownTimeout: 10 * time.Second, ResumeRing: 4096, ReadCache: 4096,
		CompactMB: 8, CheckpointInterval: 15 * time.Minute, ProbeBudget: 256,
	}
}

// writeArchive writes records to an MRT-lite file under t's temp dir.
func writeArchive(t *testing.T, records []*mrt.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "archive.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mrt.WriteAll(f, records); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// running is one Run in the background, observed through Notify.
type running struct {
	addr    string
	drained chan int
	cancel  context.CancelFunc
	done    chan error
}

// start runs c until the daemon serves. onServing, if set, runs inside the
// Serving notification: before the first record is ingested.
func start(t *testing.T, c Config, onServing func(addr string)) *running {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r := &running{drained: make(chan int, 1), cancel: cancel, done: make(chan error, 1)}
	serving := make(chan struct{})
	c.Notify = &Notify{
		Serving: func(addr string) {
			r.addr = addr
			if onServing != nil {
				onServing(addr)
			}
			close(serving)
		},
		Drained: func(n int) { r.drained <- n },
	}
	go func() { r.done <- Run(ctx, c) }()
	select {
	case <-serving:
	case err := <-r.done:
		cancel()
		t.Fatalf("Run returned before serving: %v", err)
	}
	return r
}

// awaitDrained returns the record count the source drained with.
func (r *running) awaitDrained(t *testing.T) int {
	t.Helper()
	select {
	case n := <-r.drained:
		return n
	case err := <-r.done:
		t.Fatalf("Run returned before the source drained: %v", err)
	case <-time.After(5 * time.Minute):
		t.Fatal("source never drained")
	}
	return 0
}

// stop cancels Run and waits for its graceful shutdown.
func (r *running) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	if err := <-r.done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func get(t *testing.T, url string, hdr ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := fetchJSON(url, v); err != nil {
		t.Fatal(err)
	}
}

// fetchJSON is getJSON for goroutines other than the test's.
func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %v", url, err)
	}
	return nil
}

type page struct {
	Total int `json:"total"`
}

// smokeConfig is testConfig over what `topogen -seed 2 -days 10
// -facility-outages 2 -ixp-outages 1 -link-outages 5 -as-outages 1` writes:
// a 10-day archive known to resolve outages. It returns the archive's
// record count too.
func smokeConfig(t *testing.T) (Config, int) {
	t.Helper()
	tcfg := topology.DefaultConfig()
	tcfg.Seed = 2
	w, err := topology.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	end := t0.Add(10 * 24 * time.Hour)
	sched := simulate.GenerateSchedule(w, simulate.ScheduleConfig{
		Seed: 3, Start: t0.Add(3 * 24 * time.Hour), End: end.Add(-24 * time.Hour),
		FacilityOutages: 2, IXPOutages: 1, LinkOutages: 5, ASOutages: 1,
		PartialFraction: 0.15, MinMembers: 6,
	})
	res, err := simulate.Render(w, sched, t0, end, simulate.RenderConfig{Seed: 4, SessionResets: 2, StickyFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c := testConfig(writeArchive(t, res.Records))
	c.Seed = 2
	return c, len(res.Records)
}

// TestRunRestartRecoversHistory is the daemon's durable life cycle: ingest
// an archive into a data dir, shut down, start again on the same dir. The
// second run serves the first one's history from boot, restores the newest
// checkpoint, re-ingests only the archive suffix past it, and ends at the
// same totals.
func TestRunRestartRecoversHistory(t *testing.T) {
	c, archive := smokeConfig(t)
	c.DataDir = t.TempDir()

	// ---- Run 1: ingest into an empty data dir.
	r1 := start(t, c, nil)
	if n := r1.awaitDrained(t); n != archive {
		t.Fatalf("run 1 drained after %d records, archive has %d", n, archive)
	}
	var out1, inc1 page
	getJSON(t, r1.addr+"/v1/outages", &out1)
	if out1.Total == 0 {
		t.Fatal("no outages detected before restart")
	}
	getJSON(t, r1.addr+"/v1/incidents", &inc1)
	var st1 server.StatsView
	getJSON(t, r1.addr+"/v1/stats", &st1)
	if st1.Ingest == nil || st1.Ingest.Records != int64(archive) {
		t.Fatalf("run 1 ingest stats %+v, want %d records", st1.Ingest, archive)
	}
	if st1.Store == nil || st1.Store.Appends == 0 || st1.Store.CheckpointSaves == 0 {
		t.Fatalf("run 1 store stats %+v: want appends and checkpoint saves", st1.Store)
	}
	if st1.BinClose == nil || st1.BinClose.Total.Count == 0 {
		t.Fatal("bin-close latency section empty in /v1/stats")
	}
	_, metricsBody := get(t, r1.addr+"/metrics")
	for _, series := range []string{
		`kepler_bin_close_seconds_bucket{le="+Inf"} `,
		`kepler_bin_close_stage_seconds_bucket{stage="classify",le="+Inf"} `,
	} {
		if !bytes.Contains(metricsBody, []byte("\n"+series)) {
			t.Errorf("/metrics is missing %s", series)
		}
	}

	// Conditional reads: the archive has drained, so the snapshot is
	// stable and revalidating with its ETag answers 304 with no body.
	resp, _ := get(t, r1.addr+"/v1/outages/open")
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("/v1/outages/open served no ETag")
	}
	for _, path := range []string{"/v1/outages/open", "/v1/outages?limit=1"} {
		resp, body := get(t, r1.addr+path, "If-None-Match", etag)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("If-None-Match on %s = %d with %d body bytes, want 304 and none", path, resp.StatusCode, len(body))
		}
	}
	if resp, _ := get(t, r1.addr+"/v1/outages/open", "If-None-Match", `"stale"`); resp.StatusCode != http.StatusOK {
		t.Errorf("stale ETag = %d, want 200", resp.StatusCode)
	}
	checkTrace(t, r1.addr, "before the restart")
	r1.stop(t)

	// ---- Run 2: recovery on the same dir. Inside Serving no record has
	// been ingested yet: what is served is the recovered history.
	var (
		boot      page
		bootStats server.StatsView
		bootErr   error
	)
	r2 := start(t, c, func(addr string) {
		if bootErr = fetchJSON(addr+"/v1/outages", &boot); bootErr == nil {
			bootErr = fetchJSON(addr+"/v1/stats", &bootStats)
		}
	})
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	if boot.Total != out1.Total {
		t.Fatalf("served %d outages at boot, run 1 ended with %d", boot.Total, out1.Total)
	}
	if bootStats.Store == nil || bootStats.Store.RecoveredEvents == 0 {
		t.Fatalf("boot store stats %+v: want recovered events", bootStats.Store)
	}
	reingested := r2.awaitDrained(t)
	var out2, inc2 page
	getJSON(t, r2.addr+"/v1/outages", &out2)
	getJSON(t, r2.addr+"/v1/incidents", &inc2)
	if out2.Total != out1.Total || inc2.Total != inc1.Total {
		t.Fatalf("served %d outages and %d incidents after catch-up, want %d and %d: the replay gate duplicated or lost history",
			out2.Total, inc2.Total, out1.Total, inc1.Total)
	}
	var st2 server.StatsView
	getJSON(t, r2.addr+"/v1/stats", &st2)
	resume := int(st2.Store.ResumeRecords)
	if resume == 0 {
		t.Fatal("restart did not resume from a checkpoint")
	}
	if int(st2.Ingest.Records) != reingested || resume+reingested != archive {
		t.Fatalf("resumed at record %d and re-ingested %d (stats %d) of %d: the two must cover the archive exactly",
			resume, reingested, st2.Ingest.Records, archive)
	}
	if reingested >= archive/4 {
		t.Fatalf("re-ingested %d of %d records: not bounded by the checkpoint interval", reingested, archive)
	}
	checkTrace(t, r2.addr, "after the restart")
	var first struct {
		Outages []server.OutageView `json:"outages"`
	}
	getJSON(t, r2.addr+"/v1/outages?after=0&limit=1", &first)
	if len(first.Outages) != 1 || first.Outages[0].ID != 1 {
		t.Errorf("first page after the restart = %+v, want outage 1 alone", first.Outages)
	}

	// SSE resume across the restart: a client that saw event 1 gets the
	// backlog after it from the recovered ring.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, r2.addr+"/v1/events", nil)
	req.Header.Set("Last-Event-ID", "1")
	sse, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hasEventID(sse.Body) {
		t.Error("SSE resume from Last-Event-ID 1 returned no events")
	}
	sse.Body.Close()
	r2.stop(t)
}

// checkTrace asserts outage 1 serves a non-empty evidence chain.
func checkTrace(t *testing.T, addr, when string) {
	t.Helper()
	var tr server.TraceView
	getJSON(t, addr+"/v1/outages/1/trace", &tr)
	if len(tr.Chapters) == 0 {
		t.Errorf("outage 1 served an empty trace %s", when)
	}
}

// TestMemoryModeServesTraces runs the daemon without -data-dir and asks for
// every resolved outage's provenance trace: each one is served and
// describes its outage (PoP, start, end).
func TestMemoryModeServesTraces(t *testing.T) {
	c, archive := smokeConfig(t)
	r := start(t, c, nil)
	if n := r.awaitDrained(t); n != archive {
		t.Fatalf("drained after %d records, archive has %d", n, archive)
	}
	var got struct {
		Outages []server.OutageView `json:"outages"`
	}
	getJSON(t, r.addr+"/v1/outages?limit=100000", &got)
	if len(got.Outages) == 0 {
		t.Fatal("no outages resolved; the trace check would be vacuous")
	}
	for _, o := range got.Outages {
		var tr server.TraceView
		getJSON(t, fmt.Sprintf("%s/v1/outages/%d/trace", r.addr, o.ID), &tr)
		if tr.OutageID != o.ID || tr.PoP != o.PoP || !tr.Start.Equal(o.Start) || !tr.End.Equal(o.End) {
			t.Errorf("trace of outage %d = id %d %+v %v..%v, want %+v %v..%v",
				o.ID, tr.OutageID, tr.PoP, tr.Start, tr.End, o.PoP, o.Start, o.End)
		}
	}
	r.stop(t)
}

// hasEventID reports whether r carries an SSE event frame.
func hasEventID(r io.Reader) bool {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "id: ") {
			return true
		}
	}
	return false
}

// TestLiveServiceMatchesBatch is the serving layer's correctness contract:
// the daemon (replayed archive → sharded engine with hooks → event bus →
// HTTP server) must report over the API exactly the outages and incidents
// the batch NewDetector produces for the same archive, and the SSE stream
// must deliver the same resolved-outage sequence. Run with -race:
// ingestion, snapshot publication and API reads overlap throughout.
func TestLiveServiceMatchesBatch(t *testing.T) {
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stack := pipeline.Build(w, 77)
	var target colo.FacilityID
	bestN := 0
	for _, f := range stack.Map.Facilities() {
		if _, n := stack.Map.Trackable(f.ID, stack.Dict.Covers); n > bestN {
			target, bestN = f.ID, n
		}
	}
	if target == 0 {
		t.Fatal("no trackable facility")
	}
	t0 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	ev := simulate.Event{
		Kind: simulate.EvFacility, Facility: target,
		Start:    t0.Add(5 * 24 * time.Hour),
		Duration: 45 * time.Minute,
	}
	res, err := simulate.Render(w, []simulate.Event{ev}, t0, t0.Add(14*24*time.Hour), simulate.RenderConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ReportUnresolved = true // no data plane in replay mode
	wantOuts, wantIncs := stack.Run(res.Records, cfg, nil)
	if len(wantOuts) == 0 {
		t.Fatal("batch reference detected nothing; equivalence would be vacuous")
	}

	// The batch result rendered through a server's own views.
	refBus := events.New(&metrics.ServiceStats{})
	defer refBus.Close()
	ref := server.New(server.Options{Bus: refBus, Namer: w.PoPName})
	ref.PublishSnapshot(server.BuildSnapshotFrom(time.Time{}, nil, wantOuts, wantIncs))
	var want struct {
		Outages []server.OutageView `json:"outages"`
	}
	rec := httptest.NewRecorder()
	ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/outages?limit=100000", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil || len(want.Outages) != len(wantOuts) {
		t.Fatalf("reference views: %v (%d of %d)", err, len(want.Outages), len(wantOuts))
	}

	// The daemon over the same archive: memory mode, 4 shards, the batch
	// detection config (the feed watchdog is on, as in keplerd; feed events
	// never influence detection). The SSE clients subscribe inside Serving,
	// before the first record: one filtered to resolved outages, the others
	// streaming every kind. The poller reads throughout ingestion.
	c := testConfig(writeArchive(t, res.Records))
	c.Shards = 4
	c.Trace = false
	// The SSE queue receives every kind (filtering happens at write time);
	// size it so a descheduled writer cannot lose a resolved event under
	// -race slowdowns.
	c.SSEBuffer = 1 << 14
	const streamers = 3
	sseDone := make(chan []server.EventView, 1)
	streamed := make(chan int, streamers)
	pollStop, pollDone := make(chan struct{}), make(chan struct{})
	r := start(t, c, func(addr string) {
		resp, err := http.Get(addr + "/v1/events?kinds=outage_resolved")
		if err != nil {
			t.Error(err)
			close(sseDone)
			return
		}
		go func() {
			defer resp.Body.Close()
			sseDone <- readResolved(resp.Body)
		}()
		for i := 0; i < streamers; i++ {
			resp, err := http.Get(addr + "/v1/events")
			if err != nil {
				t.Error(err)
				streamed <- 0
				continue
			}
			go func() {
				defer resp.Body.Close()
				streamed <- countEvents(resp.Body)
			}()
		}
		go func() {
			defer close(pollDone)
			for {
				select {
				case <-pollStop:
					return
				default:
				}
				for _, path := range []string{"/v1/outages", "/v1/stats"} {
					if resp, err := http.Get(addr + path); err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	})
	if n := r.awaitDrained(t); n != len(res.Records) {
		t.Errorf("drained after %d records, want %d", n, len(res.Records))
	}
	close(pollStop)
	<-pollDone

	// 1. The API reports exactly the batch outages.
	var got struct {
		Outages []server.OutageView `json:"outages"`
	}
	getJSON(t, r.addr+"/v1/outages?limit=100000", &got)
	if !reflect.DeepEqual(got.Outages, want.Outages) {
		t.Errorf("API outages diverge:\n api:   %+v\n batch: %+v", got.Outages, want.Outages)
	}
	// 2. Incidents line up too.
	var incs struct {
		Total int `json:"total"`
	}
	getJSON(t, r.addr+"/v1/incidents", &incs)
	if incs.Total != len(wantIncs) {
		t.Errorf("API incidents = %d, batch = %d", incs.Total, len(wantIncs))
	}
	// 3. Ingestion stats flowed through to /v1/stats.
	var stats server.StatsView
	getJSON(t, r.addr+"/v1/stats", &stats)
	if stats.Ingest == nil || stats.Ingest.Records != int64(len(res.Records)) {
		t.Errorf("ingest stats = %+v, want %d records", stats.Ingest, len(res.Records))
	}
	// The SSE clients cost the bus one subscriber, the relay's: its upstream
	// queue and the bus lost nothing, and deliveries flowed through it.
	if stats.Bus == nil || stats.Bus.Subscribers != 1 || stats.Bus.Dropped != 0 {
		t.Errorf("bus stats = %+v, want 1 subscriber and no drops with %d SSE clients", stats.Bus, 1+streamers)
	}
	if stats.Relay == nil || stats.Relay.Clients != 1+streamers || stats.Relay.UpstreamDropped != 0 || stats.Relay.Deliveries == 0 {
		t.Errorf("relay stats = %+v, want %d clients, deliveries and no upstream drops", stats.Relay, 1+streamers)
	}
	// The feed watchdog serves its per-session view.
	var feeds server.FeedHealthView
	getJSON(t, r.addr+"/v1/health/feeds", &feeds)
	if feeds.SessionsKnown == 0 {
		t.Errorf("/v1/health/feeds knows no peer sessions: %+v", feeds)
	}

	// 4. The SSE stream, which ends at shutdown, saw the same resolved
	// outages in the same order. SSE payloads carry no history ordinal
	// (the frame id is the bus sequence).
	r.stop(t)
	sse := <-sseDone
	if len(sse) != len(want.Outages) {
		t.Fatalf("SSE resolved events = %d, want %d", len(sse), len(want.Outages))
	}
	for i, ev := range sse {
		w := want.Outages[i]
		w.ID = 0
		if ev.Outage == nil || !reflect.DeepEqual(*ev.Outage, w) {
			t.Errorf("SSE event %d diverges:\n sse:   %+v\n batch: %+v", i, ev.Outage, w)
		}
	}
	for i := 0; i < streamers; i++ {
		if n := <-streamed; n == 0 {
			t.Error("an unfiltered SSE client received no events")
		}
	}
}

// countEvents counts the SSE event frames of r until the stream's bye or
// its end.
func countEvents(r io.Reader) int {
	n := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: bye" {
			break
		}
		if strings.HasPrefix(line, "id: ") {
			n++
		}
	}
	return n
}

// readResolved collects the SSE data payloads of r until the stream's bye
// or its end.
func readResolved(r io.Reader) []server.EventView {
	var got []server.EventView
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: bye" {
			break
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev server.EventView
			if json.Unmarshal([]byte(data), &ev) == nil {
				got = append(got, ev)
			}
		}
	}
	return got
}

func TestSlowBinAttrs(t *testing.T) {
	sp := metrics.BinSpans{
		End:   time.Date(2016, 1, 1, 12, 0, 0, 0, time.UTC),
		Total: 300 * time.Millisecond,
	}
	sp.Stage[metrics.StageClassify] = 250 * time.Millisecond
	attrs := slowBinAttrs(sp)
	if len(attrs) != 2*(metrics.NumBinStages+2) {
		t.Fatalf("attr count = %d", len(attrs))
	}
	// Attrs must round-trip through a handler as key/value pairs.
	var buf bytes.Buffer
	slog.New(slog.NewJSONHandler(&buf, nil)).Warn("slow bin close", attrs...)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if _, ok := line["classify"]; !ok {
		t.Errorf("classify stage missing from %v", line)
	}
	if _, ok := line["total"]; !ok {
		t.Errorf("total missing from %v", line)
	}
}
