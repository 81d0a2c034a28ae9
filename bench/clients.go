package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// newClient returns an HTTP client that owns exactly one keep-alive
// connection, so "two pollers" means two sockets, as the load shape says.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// getJSON fetches url and decodes the body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// do issues one GET, drains the body and returns the status and ETag.
func do(c *http.Client, url, ifNoneMatch string) (status int, etag string, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("ETag"), err
}

// sseFrame is one event frame as the client saw it.
type sseFrame struct {
	id uint64
	at time.Time // receipt
}

// sseClient consumes /v1/events from sequence zero and keeps every frame's
// id and receipt time, for the exactly-once check and the delivery lag.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	frames []sseFrame
	err    error
}

// startSSE connects with Last-Event-ID: 0, so the relay replays whatever
// was published before the connection and delivery is complete from id 1.
// It returns once the server's opening comment has arrived, i.e. once the
// subscription is registered.
func startSSE(base string) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Last-Event-ID", "0")
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/events: status %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("SSE opening frame %q: %v", line, err)
	}
	c := &sseClient{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		for {
			line, err := br.ReadString('\n')
			if err == nil && !strings.HasPrefix(line, "id: ") {
				continue
			}
			now := time.Now()
			var id uint64
			if err == nil {
				id, err = strconv.ParseUint(strings.TrimSpace(line[4:]), 10, 64)
			}
			c.mu.Lock()
			if err != nil {
				if ctx.Err() == nil {
					c.err = err // the stream broke, or a frame id did not parse
				}
				c.mu.Unlock()
				return
			}
			c.frames = append(c.frames, sseFrame{id, now})
			c.mu.Unlock()
		}
	}()
	return c, nil
}

// waitFor blocks until the client has received an id >= seq (ids arrive in
// order), the stream ends, or the timeout passes.
func (c *sseClient) waitFor(seq uint64, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); ; time.Sleep(2 * time.Millisecond) {
		c.mu.Lock()
		ok := seq == 0 || (len(c.frames) > 0 && c.frames[len(c.frames)-1].id >= seq)
		c.mu.Unlock()
		select {
		case <-c.done:
			return ok
		default:
		}
		if ok || time.Now().After(deadline) {
			return ok
		}
	}
}

// stop ends the stream and returns the frames seen and any transport
// error. It may be called more than once.
func (c *sseClient) stop() ([]sseFrame, error) {
	c.cancel()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames, c.err
}

// openLoop is a fixed-rate poller on one connection: request i is due at
// start + i/rate whether or not request i-1 has completed, and its latency
// is timed from that due instant, so a stall charges every request it
// delays. How late the generator itself ran (send instant − due instant)
// is kept separately.
type openLoop struct {
	stopCh chan struct{}
	done   chan struct{}

	latency  []time.Duration
	lateness []time.Duration
	failed   int
}

func startOpenLoop(base string, paths []string, rate float64) *openLoop {
	o := &openLoop{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		c := newClient()
		gap := time.Duration(float64(time.Second) / rate)
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * gap)
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-o.stopCh:
					t.Stop()
					return
				}
			} else {
				select {
				case <-o.stopCh:
					return
				default:
				}
			}
			sent := time.Now()
			status, _, err := do(c, base+paths[i%len(paths)], "")
			o.lateness = append(o.lateness, sent.Sub(due))
			o.latency = append(o.latency, time.Since(due))
			if err != nil || status != http.StatusOK {
				o.failed++
			}
		}
	}()
	return o
}

func (o *openLoop) stop() {
	close(o.stopCh)
	<-o.done
}

// readReq is one request of the read mix.
type readReq struct {
	route string // metric label
	path  string
	cond  bool // send If-None-Match with the route's primed ETag, expect 304
}

// readMix draws the restart-serve request mix: 40 % conditional first
// pages, 40 % uniformly random deep cursor pages (limit 25) over the whole
// sealed history, 10 % /v1/stats, 5 % /metrics, 5 % provenance traces.
func readMix(rng *rand.Rand, outages, incidents int) readReq {
	page := func(route, path string, total int) readReq {
		after := 0
		if total > 25 {
			after = rng.Intn(total - 25)
		}
		return readReq{route: route, path: fmt.Sprintf("%s?after=%d&limit=25", path, after)}
	}
	switch r := rng.Intn(100); {
	case r < 20:
		return readReq{route: "outages_first", path: "/v1/outages", cond: true}
	case r < 40:
		return readReq{route: "incidents_first", path: "/v1/incidents", cond: true}
	case r < 70:
		return page("incidents_deep", "/v1/incidents", incidents)
	case r < 80:
		return page("outages_deep", "/v1/outages", outages)
	case r < 90:
		return readReq{route: "stats", path: "/v1/stats"}
	case r < 95 || outages == 0:
		return readReq{route: "metrics", path: "/metrics"}
	default:
		return readReq{route: "trace", path: fmt.Sprintf("/v1/outages/%d/trace", 1+rng.Intn(outages))}
	}
}

// readResult is what the closed-loop read phase observed.
type readResult struct {
	Requests  int
	Failed    int
	PerSecond []float64                  // completed requests in each whole second of the phase
	Latency   map[string][]time.Duration // per route
}

// closedLoopRead runs `pollers` clients against base for dur, each sending
// its next request of the seeded mix as soon as the previous one completes.
func closedLoopRead(base string, pollers int, dur time.Duration, seed int64, outages, incidents int) readResult {
	type sample struct {
		route string
		at    time.Duration // completion, since phase start
		lat   time.Duration
		ok    bool
	}
	// Prime one ETag per conditional route; the daemon is drained, so the
	// snapshot (and with it the ETag) no longer changes.
	etags := map[string]string{}
	prime := newClient()
	for _, p := range []string{"/v1/outages", "/v1/incidents"} {
		_, etags[p], _ = do(prime, base+p, "")
	}
	prime.CloseIdleConnections()

	var wg sync.WaitGroup
	per := make([][]sample, pollers)
	start := time.Now()
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			for time.Since(start) < dur {
				rq := readMix(rng, outages, incidents)
				inm, want := "", http.StatusOK
				if rq.cond {
					inm, want = etags[rq.path], http.StatusNotModified
				}
				t0 := time.Now()
				status, _, err := do(c, base+rq.path, inm)
				per[i] = append(per[i], sample{rq.route, time.Since(start), time.Since(t0), err == nil && status == want})
			}
		}(i)
	}
	wg.Wait()
	res := readResult{Latency: map[string][]time.Duration{}}
	res.PerSecond = make([]float64, int(dur/time.Second))
	for _, ss := range per {
		for _, s := range ss {
			res.Requests++
			if !s.ok {
				res.Failed++
			}
			res.Latency[s.route] = append(res.Latency[s.route], s.lat)
			if sec := int(s.at / time.Second); sec < len(res.PerSecond) {
				res.PerSecond[sec]++
			}
		}
	}
	return res
}
