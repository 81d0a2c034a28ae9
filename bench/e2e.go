package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// Timeouts on the child; generous, since they only bound a hang.
const (
	servingTimeout = 60 * time.Second
	drainTimeout   = 150 * time.Second
)

// openLoopPaths is what the storm-durable poller cycles through while the
// daemon ingests: the hot first page, a deep cursor page, the open set and
// the stats document.
var openLoopPaths = []string{"/v1/outages", "/v1/incidents?after=100&limit=25", "/v1/outages/open", "/v1/stats"}

// figure is one reported number.
type figure struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples behind Value (passes, cycles, windows or requests)
}

// tally counts operations attempted and failed, with one line per failure
// cause.
type tally struct {
	Attempted, Failed int
	Errors            []string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.Failed += n
	t.Errors = append(t.Errors, fmt.Sprintf(format, args...))
}

// e2eResult is one untraced run of one workload.
type e2eResult struct {
	tally
	Metrics []figure             // the gated end-to-end metrics
	Samples map[string][]float64 // per-pass/cycle/window samples behind each
	Info    []figure             // client-side and counting figures, ungated
	Counts  map[string]int64     // exact counts the daemon reported
}

// harness carries what every run needs.
type harness struct {
	keplerd string // binary path
	workDir string // scratch directory inside the checkout
	seed    int64
	seconds float64
	procs   *procSet
}

// runE2E drives one workload through its lifecycle with real keplerd
// processes: ingest passes to drain, SIGKILL/restart cycles, closed-loop
// reads. Every timing comes from the child's log lines and /proc, never
// from polling it inside a timed window.
func (h *harness) runE2E(wl workload) (*e2eResult, error) {
	res := &e2eResult{Samples: map[string][]float64{}, Counts: map[string]int64{}}
	dir, err := os.MkdirTemp(h.workDir, wl.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, setupS, err := h.setUp(wl, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.Samples["setup_s"] = setupS
	nrec := len(in.Records)
	// The rendered records are only needed by the traced run; holding a few
	// hundred MB of them would make this process's GC compete with the
	// daemon for the two cores.
	in.Records = nil
	debug.FreeOSMemory()
	res.Counts["archive.records"] = int64(nrec)
	res.Counts["archive.rib_records"] = int64(in.RIB)
	res.Counts["archive.bytes"] = in.Bytes
	res.Counts["reference.outages"] = int64(len(in.Ref.Outages))
	res.Counts["reference.incidents"] = int64(in.Ref.NumInc)

	add := func(name string, v float64) { res.Samples[name] = append(res.Samples[name], v) }

	// ---- Ingest passes.
	var (
		live      *daemon // the instance kept for the read phase
		populated string  // data dir of the last durable pass, after SIGKILL
		spent     time.Duration
	)
	for pass := 0; pass == 0 || spent.Seconds() < wl.IngestShare*h.seconds; pass++ {
		if live != nil {
			h.procs.kill(live)
		}
		dataDir := filepath.Join(dir, fmt.Sprintf("data-%d", pass))
		d, p, err := h.ingestPass(wl, in, dataDir, nrec, res)
		if err != nil {
			return nil, fmt.Errorf("ingest pass %d: %w", pass, err)
		}
		live = d
		spent += p.wall
		if p.ok {
			add("ingest_records_per_s", float64(nrec)/p.wall.Seconds())
			add("ingest_cpu_s_per_mrec", p.use.CPU.Seconds()/float64(nrec)*1e6)
			if !wl.RSSOfServing {
				add("peak_rss_mb", p.use.PeakRSSMB)
			}
			add("disk_write_mb", float64(p.use.WriteBytes)/1e6)
			if !wl.Durable {
				// Without a data dir a restart is a full re-ingest: every
				// pass is also a cold start to complete history.
				add("restart_ready_s", p.wall.Seconds())
				add("restart_listen_ms", float64(d.servingAfter())/1e6)
			}
		}
		if wl.Durable {
			h.procs.kill(d)
			live = nil
			if populated != "" {
				os.RemoveAll(populated)
			}
			populated = dataDir
		}
	}

	// ---- Restart cycles, each on a fresh copy of the populated dir so
	// every cycle recovers the same bytes.
	if wl.Durable {
		begin := time.Now()
		for k := 0; k < wl.MinRestarts || time.Since(begin).Seconds() < wl.RestartShare*h.seconds; k++ {
			if live != nil {
				h.procs.kill(live)
				live = nil
			}
			cdir := filepath.Join(dir, fmt.Sprintf("restart-%d", k))
			if err := copyDir(populated, cdir); err != nil {
				return nil, err
			}
			d, err := h.procs.start(h.keplerd, wl.daemonArgs(in, cdir)...)
			if err != nil {
				return nil, err
			}
			if err := d.await(d.drained, "source drained line", drainTimeout); err != nil {
				return nil, fmt.Errorf("restart cycle %d: %w", k, err)
			}
			live = d
			res.Attempted++
			if err := h.verifyRestart(d, in, res); err != nil {
				res.fail(1, "restart cycle %d: %v", k, err)
			} else {
				add("restart_ready_s", d.drainedAfter().Seconds())
				add("restart_listen_ms", float64(d.servingAfter())/1e6)
			}
			if k > 0 {
				os.RemoveAll(filepath.Join(dir, fmt.Sprintf("restart-%d", k-1)))
			}
		}
	}

	// ---- Closed-loop reads against the last instance; ingest is idle.
	readFor := time.Duration(wl.ReadShare * h.seconds * float64(time.Second)).Truncate(time.Second)
	readFor = max(readFor, time.Second)
	rr := closedLoopRead(live.base, 2, readFor, h.seed, len(in.Ref.Outages), in.Ref.NumInc)
	res.Attempted += rr.Requests
	if rr.Failed > 0 {
		res.fail(rr.Failed, "read phase: %d of %d responses were not the expected 200/304", rr.Failed, rr.Requests)
	}
	res.Samples["read_requests_per_s"] = rr.PerSecond
	routes := make([]string, 0, len(rr.Latency))
	for route := range rr.Latency {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		ms := durations(rr.Latency[route], time.Millisecond)
		label, tail := tailQuantile(ms)
		res.Info = append(res.Info,
			figure{"server.read_p50_ms." + route, median(ms), "ms", len(ms)},
			figure{"server.read_" + label + "_ms." + route, tail, "ms", len(ms)})
	}
	var st servedTotals
	if err := getJSON(newClient(), live.base+"/v1/stats", &st); err == nil && st.Store != nil {
		if total := st.Store.ReadCacheHits + st.Store.ReadCacheMisses; total > 0 {
			res.Info = append(res.Info, figure{"store.read_cache_hit_ratio", float64(st.Store.ReadCacheHits) / float64(total), "ratio", int(total)})
		}
	}
	if u, err := live.usage(); err != nil {
		res.fail(1, "serving instance: %v", err)
	} else if wl.RSSOfServing {
		add("peak_rss_mb", u.PeakRSSMB)
	} else {
		res.Info = append(res.Info, figure{"keplerd.serve_rss_mb", u.PeakRSSMB, "MB", 1})
	}
	h.procs.kill(live)

	// ---- Fold samples into the gated metrics: the median over passes,
	// cycles or one-second windows.
	for _, m := range endToEnd {
		s := res.Samples[m.Name]
		if len(s) == 0 {
			res.fail(1, "%s: no pass produced a sample", m.Name)
		}
		res.Metrics = append(res.Metrics, figure{m.Name, median(s), m.Unit, len(s)})
	}
	if s := res.Samples["disk_write_mb"]; len(s) > 0 {
		res.Info = append(res.Info, figure{"keplerd.disk_write_mb", median(s), "MB", len(s)})
	}
	if s := res.Samples["restart_listen_ms"]; len(s) > 0 {
		res.Info = append(res.Info, figure{"keplerd.restart_listen_ms", median(s), "ms", len(s)})
	}
	return res, nil
}

// setupRepeats is how many times a run sets up; setup_s is the median. Two
// keeps the whole run inside the driver's time budget.
const setupRepeats = 2

// setUp renders the input setupRepeats times (the archive is rewritten in
// place) and returns the last, with how long each set-up took.
func (h *harness) setUp(wl workload, dir string) (in *input, secs []float64, err error) {
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if in, err = wl.setup(h.seed, dir); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return in, secs, nil
}

// passResult is what one ingest pass measured.
type passResult struct {
	ok   bool
	wall time.Duration // exec → "source drained" line
	use  procUsage     // /proc at drain
}

// ingestPass runs one fresh keplerd over the archive to drain with an SSE
// client attached from sequence zero (and, on storm-durable, the open-loop
// poller), then verifies what it published and serves. The daemon is
// returned still running.
func (h *harness) ingestPass(wl workload, in *input, dataDir string, nrec int, res *e2eResult) (*daemon, passResult, error) {
	var p passResult
	d, err := h.procs.start(h.keplerd, wl.daemonArgs(in, dataDir)...)
	if err != nil {
		return nil, p, err
	}
	if err := d.await(d.serving, "serving line", servingTimeout); err != nil {
		return nil, p, err
	}
	sse, err := startSSE(d.base)
	if err != nil {
		return nil, p, err
	}
	defer sse.stop()
	var poller *openLoop
	if wl.OpenLoopDuringIngest {
		poller = startOpenLoop(d.base, openLoopPaths, 100)
	}
	err = d.await(d.drained, "source drained line", drainTimeout)
	use, uerr := d.usage()
	if poller != nil {
		poller.stop()
	}
	if err != nil {
		return nil, p, err
	}
	if uerr != nil {
		return nil, p, uerr
	}
	p.wall, p.use, p.ok = d.drainedAfter(), use, true
	res.Attempted++
	// A pass that fails a check counts as failed and contributes no timing.
	bad := func(n int, format string, args ...any) {
		p.ok = false
		res.fail(n, format, args...)
	}

	// Everything below is verification, outside the timed window.
	c := newClient()
	defer c.CloseIdleConnections()
	var st servedTotals
	if err := getJSON(c, d.base+"/v1/stats", &st); err != nil {
		return nil, p, err
	}
	sse.waitFor(st.Bus.Published, 10*time.Second)
	frames, serr := sse.stop()
	res.Attempted += int(st.Bus.Published)
	if serr != nil {
		bad(1, "SSE stream broke: %v", serr)
	} else if err := checkSSE(frames, st.Bus.Published); err != nil {
		bad(1, "%v", err)
	}
	if int(st.Ingest.Records) != nrec || d.records != nrec {
		bad(1, "daemon ingested %d records (log says %d), archive holds %d", st.Ingest.Records, d.records, nrec)
	}
	outs, incs, reqs, err := pagedHistory(c, d.base, 100)
	res.Attempted += reqs
	if err == nil {
		err = checkHistory(in.Ref, outs, incs)
	}
	if err != nil {
		bad(1, "post-drain history: %v", err)
	}
	if wl.Durable && use.WriteBytes == 0 && st.Bus.Published > 0 {
		bad(1, "daemon published %d events but /proc says it wrote 0 bytes: the data dir is not on a disk-backed filesystem", st.Bus.Published)
	}

	res.Counts["events.publish_count"] = int64(st.Bus.Published)
	res.Counts["core.bin_close_count"] = st.Ingest.Bins
	if st.Store != nil {
		res.Counts["store.append_count"] = st.Store.Appends
		res.Counts["store.flush_count"] = st.Store.Flushes
		res.Counts["store.compaction_count"] = st.Store.Compactions
		res.Counts["store.checkpoint_save_count"] = st.Store.CheckpointSaves
		res.Counts["store.bytes_written"] = st.Store.AppendedBytes + st.Store.CheckpointBytes
	}
	if poller != nil {
		res.Attempted += len(poller.latency)
		if poller.failed > 0 {
			bad(poller.failed, "open-loop poller: %d of %d responses were not 200", poller.failed, len(poller.latency))
		}
		lat := durations(poller.latency, time.Millisecond)
		label, tail := tailQuantile(lat)
		res.Info = append(res.Info,
			figure{"server.read_under_ingest_p50_ms", median(lat), "ms", len(lat)},
			figure{"server.read_under_ingest_" + label + "_ms", tail, "ms", len(lat)},
			figure{"server.poller_lateness_p50_ms", median(durations(poller.lateness, time.Millisecond)), "ms", len(lat)})
	}
	return d, p, nil
}

// verifyRestart checks a restarted, caught-up daemon: the paged history
// equals the reference again (a SIGKILL may have dropped the unflushed
// tail; the gated re-ingest must have regenerated it) and its own totals
// agree.
func (h *harness) verifyRestart(d *daemon, in *input, res *e2eResult) error {
	c := newClient()
	defer c.CloseIdleConnections()
	outs, incs, reqs, err := pagedHistory(c, d.base, 100)
	res.Attempted += reqs
	if err != nil {
		return err
	}
	if err := checkHistory(in.Ref, outs, incs); err != nil {
		return err
	}
	var st servedTotals
	if err := getJSON(c, d.base+"/v1/stats", &st); err != nil {
		return err
	}
	return checkRestartTotals(in.Ref, st, d.resumeRec)
}

// copyDir copies the flat data directory src to a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
