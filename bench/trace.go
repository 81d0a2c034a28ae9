package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"kepler/internal/mrt"
)

// perLayer are the ungated per-layer metrics, every one printed by every
// traced run (a layer a workload leaves idle reports the zero it did).
// T: from the traced replica over the workload's own input. D: from a
// standalone layer driver.
var perLayer = []metricDecl{
	// T, ingest.
	{Name: "mrt.decode_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mrt.decode_self_s", Unit: "s", Better: "lower"},
	{Name: "live.replayer_self_s", Unit: "s", Better: "lower"},
	{Name: "core.process_self_s", Unit: "s", Better: "lower"},
	{Name: "core.apply_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.bin_close_count", Unit: "count", Better: "lower"},
	{Name: "core.bin_close_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bin_close_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_capture_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_encode_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "events.hooks_self_s", Unit: "s", Better: "lower"},
	{Name: "events.publish_count", Unit: "count", Better: "lower"},
	{Name: "events.publish_self_us", Unit: "us", Better: "lower"},
	{Name: "store.append_count", Unit: "count", Better: "lower"},
	{Name: "store.flush_count", Unit: "count", Better: "lower"},
	{Name: "store.checkpoint_save_count", Unit: "count", Better: "lower"},
	{Name: "store.compaction_count", Unit: "count", Better: "lower"},
	{Name: "store.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "store.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "store.append_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.bin_flush_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_save_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "store.compaction_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.snapshot_build_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.checkpoint_share", Unit: "ratio", Better: "lower"},
	// T, restart on the populated dir.
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.load_checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "keplerd.resume_reingest_ms", Unit: "ms", Better: "lower"},
	// T, reads against the drained replica.
	{Name: "server.handler_us.outages_first", Unit: "us", Better: "lower"},
	{Name: "server.handler_us.outages_deep", Unit: "us", Better: "lower"},
	{Name: "server.handler_us.incidents_deep", Unit: "us", Better: "lower"},
	{Name: "server.handler_us.open", Unit: "us", Better: "lower"},
	{Name: "server.handler_us.stats", Unit: "us", Better: "lower"},
	{Name: "server.handler_us.metrics", Unit: "us", Better: "lower"},
	{Name: "server.handler_us.trace", Unit: "us", Better: "lower"},
	{Name: "server.handler_us.not_modified", Unit: "us", Better: "lower"},
	{Name: "store.read_page_hit_us", Unit: "us", Better: "lower"},
	{Name: "store.read_page_miss_us", Unit: "us", Better: "lower"},
	{Name: "store.read_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	// D.
	{Name: "bgpstream.fanout_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.ingest_records_per_s.shards1", Unit: "1/s", Better: "higher"},
	{Name: "core.ingest_records_per_s.shardsN", Unit: "1/s", Better: "higher"},
	{Name: "events.publish_ns.sub1", Unit: "ns", Better: "lower"},
	{Name: "events.publish_ns.sub100", Unit: "ns", Better: "lower"},
	{Name: "events.relay_deliveries_per_s.c1", Unit: "1/s", Better: "higher"},
	{Name: "events.relay_deliveries_per_s.c100", Unit: "1/s", Better: "higher"},
	{Name: "events.relay_deliveries_per_s.c1000", Unit: "1/s", Better: "higher"},
	{Name: "events.relay_loss_ratio.c1000", Unit: "ratio", Better: "lower"},
	{Name: "store.open_ms.e10k", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms.e100k", Unit: "ms", Better: "lower"},
	{Name: "store.compaction_cycle_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "probe.campaigns_per_s.w4", Unit: "1/s", Better: "higher"},
	{Name: "keplerd.boot_world_build_ms", Unit: "ms", Better: "lower"},
}

// driverCap bounds the record prefix the per-record drivers replay, so the
// rib-backfill archive does not turn a baseline into another full pass.
const driverCap = 400_000

// tracedResult is one traced run of one workload.
type tracedResult struct {
	tally
	Values map[string]float64
	N      map[string]int
}

func (r *tracedResult) set(name string, v float64, n int) { r.Values[name], r.N[name] = v, n }

// p50 sets name to the median of samples (0 with none: the layer was idle).
func (r *tracedResult) p50(name string, samples []float64) {
	r.set(name, median(samples), len(samples))
}

// runTraced replays the workload's input through the in-process replica:
// an untraced prefix for the overhead ratio, the traced full ingest, for
// durable workloads a kill and a traced restart on the same dir, reads
// against the drained replica's handler, then the layer drivers.
func (h *harness) runTraced(wl workload, buildDir string) (*tracedResult, error) {
	res := &tracedResult{Values: map[string]float64{}, N: map[string]int{}}
	dir, err := os.MkdirTemp(h.workDir, wl.Name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := wl.setup(h.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	nrec := len(in.Records)
	// Only the drivers read the rendered records from here on, and only a
	// prefix; letting the rest go keeps the collector's mark work out of the
	// replica runs.
	in.Records = append([]*mrt.Record(nil), in.Records[:min(nrec, driverCap)]...)
	debug.FreeOSMemory()

	// ---- Untraced prefix: the same replica with a nil tracer over the
	// first third of the records.
	prefix := max(1, nrec/3)
	un, err := newReplica(wl, in, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := un.pump(prefix, nil); err != nil {
		return nil, err
	}
	untracedPrefix := time.Since(t0)
	un.close(true)

	// ---- Traced full ingest.
	tr := newTracer()
	dataDir := filepath.Join(dir, "traced")
	rp, err := newReplica(wl, in, dataDir, tr)
	if err != nil {
		return nil, err
	}
	var tracedPrefix time.Duration
	t0 = time.Now()
	got, err := rp.pump(0, func(n int) {
		if n == prefix {
			tracedPrefix = time.Since(t0)
		}
	})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if got != nrec {
		res.fail(1, "traced replica ingested %d records, archive holds %d", got, nrec)
	}
	published := rp.bus.Stats().Published
	res.Attempted += int(published)
	rp.sse.waitFor(uint64(published), 10*time.Second)
	frames, serr := rp.sse.stop()
	if serr == nil {
		serr = checkSSE(frames, uint64(published))
	}
	if serr != nil {
		res.fail(1, "traced ingest: %v", serr)
	}
	var lag []float64 // publish stamp (index seq-1) → receipt on the SSE client, ms
	for _, f := range frames {
		if f.id >= 1 && f.id <= uint64(len(rp.published)) {
			lag = append(lag, float64(f.at.Sub(rp.published[f.id-1]))/1e6)
		}
	}
	h.verifyReplica(rp, in, res, "traced ingest")

	// Self times: every span's self time summed is the pump span's total;
	// what the pump span keeps for itself is what no layer accounts for.
	layerSelf := 0.0
	for id := spanID(0); id < numSpans; id++ {
		if id != spPump {
			layerSelf += tr.selfSeconds(id)
		}
	}
	ckptSelf := tr.selfSeconds(spCkptCapture, spCkptEncode, spCkptSave)
	res.set("trace.overhead_ratio", tracedPrefix.Seconds()/untracedPrefix.Seconds(), prefix)
	res.set("trace.self_sum_ratio", layerSelf/wall.Seconds(), 1)
	res.set("trace.checkpoint_share", ckptSelf/wall.Seconds(), 1)

	decode := tr.selfSeconds(spDecode)
	res.set("mrt.decode_self_s", decode, nrec)
	res.set("mrt.decode_records_per_s", float64(nrec)/decode, nrec)
	res.set("live.replayer_self_s", tr.selfSeconds(spReplayer), nrec)
	res.set("core.process_self_s", tr.selfSeconds(spProcess, spBinClose, spFlush), nrec)
	res.set("core.apply_records_per_s", float64(tr.total[spProcess].Count)/tr.selfSeconds(spProcess), int(tr.total[spProcess].Count))
	res.set("core.bin_close_count", float64(rp.eng.Stats().Bins), 1)
	binClose := tr.selfSamples(time.Millisecond, spBinClose)
	res.p50("core.bin_close_p50_ms", binClose)
	res.set("core.bin_close_p90_ms", quantile(binClose, 0.9), len(binClose))
	res.p50("core.checkpoint_capture_p50_ms", tr.selfSamples(time.Millisecond, spCkptCapture))
	res.p50("core.checkpoint_encode_p50_ms", tr.selfSamples(time.Millisecond, spCkptEncode))
	res.p50("core.checkpoint_bytes", rp.ckptBytes)
	res.set("events.hooks_self_s", tr.selfSeconds(spHooks), int(tr.total[spHooks].Count))
	res.set("events.publish_count", float64(published), 1)
	res.set("events.publish_self_us", tr.selfSeconds(spPublish)/float64(max(published, 1))*1e6, int(published))
	if rp.sstats != nil {
		s := rp.sstats.Snapshot()
		res.set("store.append_count", float64(s.Appends), 1)
		res.set("store.flush_count", float64(s.Flushes), 1)
		res.set("store.checkpoint_save_count", float64(s.CheckpointSaves), 1)
		res.set("store.compaction_count", float64(s.Compactions), 1)
		res.set("store.bytes_written", float64(s.AppendedBytes+s.CheckpointBytes), 1)
		res.set("store.write_amp", float64(s.AppendedBytes+s.CheckpointBytes)/float64(max(s.AppendedBytes, 1)), 1)
	}
	res.p50("store.append_p50_us", tr.selfSamples(time.Microsecond, spAppend))
	res.p50("store.bin_flush_p50_ms", tr.selfSamples(time.Millisecond, spBinFlush))
	res.p50("store.checkpoint_save_p50_ms", tr.selfSamples(time.Millisecond, spCkptSave))
	res.p50("store.compaction_p50_ms", tr.selfSamples(time.Millisecond, spCompaction))
	res.p50("server.snapshot_build_p50_ms", tr.selfSamples(time.Millisecond, spSnapshot))
	res.p50("server.sse_lag_p50_ms", lag)
	res.set("server.sse_lag_p90_ms", quantile(lag, 0.9), len(lag))

	header := map[string]any{"workload": wl.Name, "seed": h.seed, "records": nrec, "wall_ns": wall.Nanoseconds()}
	if err := tr.write(filepath.Join(buildDir, "trace-"+wl.Name+".json"), header); err != nil {
		return nil, err
	}

	// ---- Restart on the populated dir, as after a SIGKILL.
	serving := rp
	if wl.Durable {
		rp.close(true)
		tr2 := newTracer()
		t0 = time.Now()
		rs, err := newReplica(wl, in, dataDir, tr2)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if _, err := rs.pump(0, nil); err != nil {
			return nil, err
		}
		res.Attempted++
		if !rs.resumed {
			res.fail(1, "restarted replica found no usable checkpoint")
		}
		h.verifyReplica(rs, in, res, "restart")
		ms := func(ids ...spanID) float64 { return tr2.selfSeconds(ids...) * 1e3 }
		res.set("store.open_ms", ms(spStoreOpen), 1)
		res.set("store.load_checkpoint_ms", ms(spCkptLoad), 1)
		res.set("core.checkpoint_decode_ms", ms(spCkptDecode), 1)
		res.set("core.restore_ms", ms(spRestore), 1)
		res.set("keplerd.resume_reingest_ms", ms(spSeek)+float64(tr2.total[spPump].Total)/1e6, 1)
		serving = rs
	}

	// ---- Reads against the drained replica.
	h.driveHandlers(serving, in, res)
	serving.close(false)

	// ---- Layer drivers.
	drv, err := runDrivers(in, dir)
	if err != nil {
		return nil, err
	}
	for name, v := range drv {
		res.set(name, v, 1)
	}
	return res, nil
}

// verifyReplica pages the replica's served history over its socket and
// compares it with the reference.
func (h *harness) verifyReplica(r *replica, in *input, res *tracedResult, what string) {
	c := newClient()
	defer c.CloseIdleConnections()
	outs, incs, reqs, err := pagedHistory(c, r.http.URL, 100)
	res.Attempted += reqs
	if err == nil {
		err = checkHistory(in.Ref, outs, incs)
	}
	if err != nil {
		res.fail(1, "%s: %v", what, err)
	}
}

// driveHandlers times every read handler through Handler().ServeHTTP with
// a response recorder (no sockets), then the store's paged reads directly.
func (h *harness) driveHandlers(r *replica, in *input, res *tracedResult) {
	const perRoute = 300
	handler := r.srv.Handler()
	rng := rand.New(rand.NewSource(h.seed))
	outages, incidents := len(in.Ref.Outages), in.Ref.NumInc
	deep := func(path string, total int) func() string {
		return func() string {
			after := 0
			if total > 25 {
				after = rng.Intn(total - 25)
			}
			return fmt.Sprintf("%s?after=%d&limit=25", path, after)
		}
	}
	fixed := func(path string) func() string { return func() string { return path } }
	serve := func(path, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}
	etag := serve("/v1/outages", "").Header().Get("ETag")
	routes := []struct {
		name string
		path func() string
		inm  string
		want int
	}{
		{"outages_first", fixed("/v1/outages"), "", 200},
		{"outages_deep", deep("/v1/outages", outages), "", 200},
		{"incidents_deep", deep("/v1/incidents", incidents), "", 200},
		{"open", fixed("/v1/outages/open"), "", 200},
		{"stats", fixed("/v1/stats"), "", 200},
		{"metrics", fixed("/metrics"), "", 200},
		{"trace", func() string { return fmt.Sprintf("/v1/outages/%d/trace", 1+rng.Intn(max(outages, 1))) }, "", 200},
		{"not_modified", fixed("/v1/outages"), etag, 304},
	}
	for _, rt := range routes {
		if rt.name == "trace" && outages == 0 {
			res.set("server.handler_us.trace", 0, 0)
			continue
		}
		var us []float64
		for i := 0; i < perRoute; i++ {
			path := rt.path()
			t0 := time.Now()
			rec := serve(path, rt.inm)
			us = append(us, float64(time.Since(t0))/1e3)
			res.Attempted++
			if rec.Code != rt.want {
				res.fail(1, "handler %s: GET %s answered %d, want %d", rt.name, path, rec.Code, rt.want)
				break
			}
		}
		res.p50("server.handler_us."+rt.name, us)
	}

	if r.st == nil || incidents <= 25 {
		return
	}
	s := r.sstats.Snapshot()
	if total := s.ReadCacheHits + s.ReadCacheMisses; total > 0 {
		res.set("store.read_cache_hit_ratio", float64(s.ReadCacheHits)/float64(total), int(total))
	}
	// A random page, then the same page again: the counters say which of
	// the two reads missed.
	var hit, miss []float64
	for i := 0; i < perRoute; i++ {
		start := rng.Intn(incidents - 25)
		for rep := 0; rep < 2; rep++ {
			before := r.sstats.ReadCacheMisses.Load()
			t0 := time.Now()
			_, err := r.st.ReadIncidents(start, 25)
			us := float64(time.Since(t0)) / 1e3
			res.Attempted++
			if err != nil {
				res.fail(1, "store.ReadIncidents(%d, 25): %v", start, err)
				return
			}
			if r.sstats.ReadCacheMisses.Load() > before {
				miss = append(miss, us)
			} else {
				hit = append(hit, us)
			}
		}
	}
	res.p50("store.read_page_hit_us", hit)
	res.p50("store.read_page_miss_us", miss)
}

// reportTraced runs one traced pass and prints it; the last line is the
// result object with every per-layer metric.
func (h *harness) reportTraced(wl workload, buildDir string) bool {
	res, err := h.runTraced(wl, buildDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "keplerbench: %s (traced): %v\n", wl.Name, err)
		return false
	}
	out := result{Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		v := res.Values[m.Name]
		fmt.Printf("layer %-14s %-44s %16.4f %-6s n=%d\n", wl.Name, m.Name, v, m.Unit, res.N[m.Name])
		out.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	for _, e := range res.Errors {
		fmt.Printf("FAIL  %-14s %s\n", wl.Name, e)
	}
	out.Correct = res.Failed == 0
	printResult(out)
	return out.Correct
}
