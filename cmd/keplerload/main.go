// Command keplerload soaks a running keplerd's serving path and reports
// what clients actually experienced.
//
// It drives two kinds of load concurrently for a fixed duration:
//
//   - N pollers cycling through the read API (/v1/outages, /v1/outages/open,
//     /v1/incidents, /v1/stats, /v1/health/feeds, /healthz, /metrics),
//     recording client-observed latency and status classes per endpoint
//     into the same histogram type the server uses, so the two sides of
//     the connection are directly comparable.
//   - M SSE clients consuming /v1/events. The first -slow-sse of them
//     sleep between frame reads to exert TCP backpressure, which is the
//     documented way to make the server's per-subscriber queues fill and
//     drop — the report shows those drops from the server's side.
//
// Pollers revalidate: each remembers the last ETag it saw per endpoint and
// sends If-None-Match, so a healthy daemon answers most of the cycle with
// body-less 304s — the report counts them per endpoint (-cond-get=false
// forces full responses).
//
// Around the soak it snapshots /v1/stats and reports the server-side
// deltas: bus publishes and drops, per-endpoint request counts, and the
// SSE delivery-lag histogram. The JSON report goes to -out (default
// stdout).
//
// With -sse-sweep the single soak is replaced by a client-count sweep:
// one phase per count (e.g. -sse-sweep 10,100,1000), each holding that
// many SSE clients open for -duration and differencing /v1/stats across
// the phase. Every phase reports delivery-lag quantiles (computed from the
// server's per-bucket histogram deltas, so they cover exactly that phase)
// and the relay's drop and shed rates. Tag runs with -label to tell them
// apart when archiving reports side by side.
//
// Example against a synthetic soak daemon:
//
//	keplerd -seed 1 -synthetic -listen :8080 &
//	keplerload -addr http://127.0.0.1:8080 -duration 30s -out BENCH_pr9_serving.json
//	keplerload -addr http://127.0.0.1:8080 -duration 20s -sse-sweep 10,100,1000 -label nightly
//
// keplerload exits nonzero if the target is unreachable, if no poll ever
// succeeded, or if fewer than -min-sse-events SSE events were delivered
// (the CI smoke uses that to assert the event path is alive; in sweep mode
// the floor applies to every phase).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kepler/internal/events"
	"kepler/internal/metrics"
	"kepler/internal/server"
)

// pollPaths is the read-API cycle every poller walks. /v1/events is
// deliberately absent: streaming is the SSE clients' job.
var pollPaths = []string{
	"/v1/outages",
	"/v1/outages/open",
	"/v1/incidents",
	"/v1/stats",
	"/v1/health/feeds",
	"/healthz",
	"/metrics",
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "base URL of the keplerd under load")
		pollers  = flag.Int("pollers", 4, "concurrent API pollers")
		sse      = flag.Int("sse", 3, "concurrent SSE clients on /v1/events")
		slowSSE  = flag.Int("slow-sse", 1, "of the SSE clients, how many read deliberately slowly (must be <= -sse)")
		slowGap  = flag.Duration("slow-gap", 250*time.Millisecond, "pause a slow SSE client takes between frame reads")
		interval = flag.Duration("poll-interval", 50*time.Millisecond, "pause between requests within one poller")
		duration = flag.Duration("duration", 30*time.Second, "soak length")
		minSSE   = flag.Int64("min-sse-events", 0, "exit nonzero unless at least this many SSE events were delivered across all clients (per phase in sweep mode)")
		out      = flag.String("out", "-", "report destination: a file path, or - for stdout")
		condGet  = flag.Bool("cond-get", true, "pollers revalidate with If-None-Match, counting 304s; false forces full responses")
		sweep    = flag.String("sse-sweep", "", "comma-separated SSE client counts (e.g. 10,100,1000): replace the soak with one phase per count, -duration each")
		label    = flag.String("label", "", "free-form tag recorded in the report, e.g. the build under test")
	)
	flag.Parse()

	if *pollers < 0 || *sse < 0 || *slowSSE < 0 || *slowSSE > *sse {
		fatal(fmt.Errorf("need 0 <= -slow-sse <= -sse and -pollers >= 0"))
	}
	if *duration <= 0 {
		fatal(fmt.Errorf("-duration must be positive, got %v", *duration))
	}
	var sweepCounts []int
	if *sweep != "" {
		for _, f := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fatal(fmt.Errorf("-sse-sweep must be comma-separated positive client counts, got %q", *sweep))
			}
			sweepCounts = append(sweepCounts, n)
		}
	}

	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 30 * time.Second}

	before, err := fetchStats(client, base)
	if err != nil {
		fatal(fmt.Errorf("target not reachable: %w", err))
	}

	if len(sweepCounts) > 0 {
		runSweep(client, base, sweepCounts, *duration, *label, *out, *minSSE)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	// Client-side telemetry reuses the server's own histogram machinery so
	// the report's client and server sections have identical bucket edges.
	hs := metrics.NewHTTPStats()
	var requests, errors, notModified atomic.Int64
	errorsByEndpoint := sync.Map{} // path -> *atomic.Int64
	nmByEndpoint := sync.Map{}     // path -> *atomic.Int64

	var wg sync.WaitGroup
	for i := 0; i < *pollers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each poller revalidates like a well-behaved HTTP cache: it
			// remembers the newest ETag per endpoint and sends If-None-Match,
			// paying for a full body only when the snapshot changed.
			etags := map[string]string{}
			// Stagger the starting endpoint so pollers don't convoy.
			for n := id; ; n++ {
				path := pollPaths[n%len(pollPaths)]
				inm := ""
				if *condGet {
					inm = etags[path]
				}
				status, etag, d, err := timedGet(ctx, client, base+path, inm)
				requests.Add(1)
				hs.Observe(path, status, d)
				switch {
				case err != nil:
					errors.Add(1)
					c, _ := errorsByEndpoint.LoadOrStore(path, new(atomic.Int64))
					c.(*atomic.Int64).Add(1)
				case status == http.StatusNotModified:
					notModified.Add(1)
					c, _ := nmByEndpoint.LoadOrStore(path, new(atomic.Int64))
					c.(*atomic.Int64).Add(1)
				case etag != "":
					etags[path] = etag
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(*interval):
				}
			}
		}(i)
	}

	sseReports := make([]SSEClientReport, *sse)
	for i := 0; i < *sse; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			slow := id < *slowSSE
			gap := time.Duration(0)
			if slow {
				gap = *slowGap
			}
			ev, bytes, err := consumeSSE(ctx, base+"/v1/events", gap)
			sseReports[id] = SSEClientReport{
				ID:     id,
				Slow:   slow,
				Events: ev,
				Bytes:  bytes,
				Error:  errString(err),
			}
		}(i)
	}

	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	after, aerr := fetchStats(client, base)

	rep := Report{
		Target:          base,
		Label:           *label,
		StartedAt:       start.UTC(),
		DurationSeconds: elapsed.Seconds(),
		Pollers:         *pollers,
		SSEClients:      *sse,
		SlowSSEClients:  *slowSSE,
		PollIntervalMS:  float64(*interval) / float64(time.Millisecond),
		SlowGapMS:       float64(*slowGap) / float64(time.Millisecond),
		Client: ClientReport{
			Requests:    requests.Load(),
			Errors:      errors.Load(),
			NotModified: notModified.Load(),
			SSE:         sseReports,
		},
	}
	for _, r := range sseReports {
		rep.Client.SSEEventsTotal += r.Events
	}
	snap := hs.Snapshot()
	for _, e := range snap.Endpoints {
		var errs, nm int64
		if c, ok := errorsByEndpoint.Load(e.Endpoint); ok {
			errs = c.(*atomic.Int64).Load()
		}
		if c, ok := nmByEndpoint.Load(e.Endpoint); ok {
			nm = c.(*atomic.Int64).Load()
		}
		rep.Client.Endpoints = append(rep.Client.Endpoints, EndpointReport{
			Endpoint:    e.Endpoint,
			Requests:    e.Latency.Count,
			Errors:      errs,
			NotModified: nm,
			Statuses:    e.Statuses,
			Latency:     latencyReport(e.Latency),
		})
	}
	if aerr != nil {
		rep.ServerError = aerr.Error()
	} else {
		rep.Server = serverDelta(before, after)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "-" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal(err)
	}

	if requests.Load() > 0 && errors.Load() == requests.Load() {
		fatal(fmt.Errorf("every one of %d polls failed", requests.Load()))
	}
	if rep.Client.SSEEventsTotal < *minSSE {
		fatal(fmt.Errorf("delivered %d SSE events, need at least %d", rep.Client.SSEEventsTotal, *minSSE))
	}
}

// Report is the JSON document keplerload emits.
type Report struct {
	Target          string        `json:"target"`
	Label           string        `json:"label,omitempty"`
	StartedAt       time.Time     `json:"started_at"`
	DurationSeconds float64       `json:"duration_seconds"`
	Pollers         int           `json:"pollers"`
	SSEClients      int           `json:"sse_clients"`
	SlowSSEClients  int           `json:"slow_sse_clients"`
	PollIntervalMS  float64       `json:"poll_interval_ms"`
	SlowGapMS       float64       `json:"slow_gap_ms"`
	Client          ClientReport  `json:"client"`
	Server          *ServerReport `json:"server,omitempty"`
	ServerError     string        `json:"server_error,omitempty"`
	Sweep           []SweepPhase  `json:"sweep,omitempty"`
}

// ClientReport is everything measured from the load generator's side of
// the connection.
type ClientReport struct {
	Requests       int64             `json:"requests"`
	Errors         int64             `json:"errors"`
	NotModified    int64             `json:"not_modified"`
	Endpoints      []EndpointReport  `json:"endpoints"`
	SSE            []SSEClientReport `json:"sse"`
	SSEEventsTotal int64             `json:"sse_events_total"`
}

type EndpointReport struct {
	Endpoint    string           `json:"endpoint"`
	Requests    int64            `json:"requests"`
	Errors      int64            `json:"errors"`
	NotModified int64            `json:"not_modified,omitempty"`
	Statuses    map[string]int64 `json:"statuses"`
	Latency     LatencyReport    `json:"latency"`
}

// SweepPhase is one client-count step of an -sse-sweep run. Delivery-lag
// quantiles come from the server's per-bucket histogram deltas across the
// phase, so they describe exactly the events this phase delivered.
type SweepPhase struct {
	Clients            int     `json:"clients"`
	DurationSeconds    float64 `json:"duration_seconds"`
	EventsTotal        int64   `json:"events_total"`
	EventsPerClientMin int64   `json:"events_per_client_min"`
	EventsPerClientMax int64   `json:"events_per_client_max"`
	ClientErrors       int64   `json:"client_errors"`

	LagCount  int64   `json:"delivery_lag_count"`
	LagMeanMS float64 `json:"delivery_lag_mean_ms"`
	LagP50MS  float64 `json:"delivery_lag_p50_ms"`
	LagP90MS  float64 `json:"delivery_lag_p90_ms"`
	LagP99MS  float64 `json:"delivery_lag_p99_ms"`

	BusPublishedDelta int64 `json:"bus_published_delta"`
	BusDroppedDelta   int64 `json:"bus_dropped_delta"`
	// Relay counters.
	RelayDeliveriesDelta      int64 `json:"relay_deliveries_delta,omitempty"`
	RelayDroppedDelta         int64 `json:"relay_dropped_delta,omitempty"`
	RelayShedDelta            int64 `json:"relay_shed_delta,omitempty"`
	RelayUpstreamDroppedDelta int64 `json:"relay_upstream_dropped_delta,omitempty"`
	// Observed mid-phase, while every client was still attached.
	ClientsObserved       int `json:"clients_observed"`
	UpstreamDepthObserved int `json:"upstream_depth_observed"`
	// DropRate is dropped/(delivered+dropped) at the relay: drops+sheds
	// over deliveries.
	DropRate float64 `json:"drop_rate"`
}

type LatencyReport struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

type SSEClientReport struct {
	ID     int    `json:"id"`
	Slow   bool   `json:"slow"`
	Events int64  `json:"events"`
	Bytes  int64  `json:"bytes"`
	Error  string `json:"error,omitempty"`
}

// ServerReport is the server's own telemetry, differenced across the soak.
type ServerReport struct {
	BusPublishedDelta int64                    `json:"bus_published_delta"`
	BusDroppedDelta   int64                    `json:"bus_dropped_delta"`
	HTTPRequestsDelta int64                    `json:"http_requests_delta"`
	Endpoints         []ServerEndpointDelta    `json:"endpoints,omitempty"`
	SSELagCountDelta  int64                    `json:"sse_lag_count_delta"`
	SSELagAfter       *server.StageLatencyView `json:"sse_lag_after,omitempty"`
	SubscribersAtEnd  []events.SubscriberDepth `json:"subscribers_at_end,omitempty"`
	FeedCoverage      *float64                 `json:"feed_coverage,omitempty"`
	// Relay counters.
	RelayDeliveriesDelta      int64             `json:"relay_deliveries_delta,omitempty"`
	RelayDroppedDelta         int64             `json:"relay_dropped_delta,omitempty"`
	RelayShedDelta            int64             `json:"relay_shed_delta,omitempty"`
	RelayUpstreamDroppedDelta int64             `json:"relay_upstream_dropped_delta,omitempty"`
	RelayAtEnd                *events.RelayInfo `json:"relay_at_end,omitempty"`
}

type ServerEndpointDelta struct {
	Endpoint      string                  `json:"endpoint"`
	RequestsDelta int64                   `json:"requests_delta"`
	LatencyAfter  server.StageLatencyView `json:"latency_after"`
}

func latencyReport(h metrics.HistogramSnapshot) LatencyReport {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencyReport{
		Count:  h.Count,
		MeanMS: ms(h.Mean()),
		P50MS:  ms(h.Quantile(0.50)),
		P90MS:  ms(h.Quantile(0.90)),
		P99MS:  ms(h.Quantile(0.99)),
	}
}

// timedGet issues one GET (conditional when inm is non-empty), fully
// drains the body (so keep-alive reuse and the server's latency measurement
// both cover the whole response), and returns the status (0 on transport
// error), the response ETag, and the client-observed duration.
func timedGet(ctx context.Context, client *http.Client, url, inm string) (int, string, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", 0, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", time.Since(start), err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	etag := resp.Header.Get("ETag")
	if cerr != nil {
		return resp.StatusCode, etag, d, cerr
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, etag, d, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp.StatusCode, etag, d, nil
}

// runSweep holds sweepCounts[i] SSE clients open for dur each, differencing
// the server's stats across every phase, then writes the report and applies
// the per-phase minSSE floor.
func runSweep(client *http.Client, base string, counts []int, dur time.Duration, label, out string, minSSE int64) {
	rep := Report{
		Target:          base,
		Label:           label,
		StartedAt:       time.Now().UTC(),
		DurationSeconds: (time.Duration(len(counts)) * dur).Seconds(),
	}
	for _, n := range counts {
		phase, err := runSweepPhase(client, base, n, dur)
		if err != nil {
			fatal(fmt.Errorf("sweep phase %d clients: %w", n, err))
		}
		rep.Sweep = append(rep.Sweep, phase)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if out == "-" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(out, raw, 0o644); err != nil {
		fatal(err)
	}

	for _, p := range rep.Sweep {
		if p.EventsTotal < minSSE {
			fatal(fmt.Errorf("phase with %d clients delivered %d SSE events, need at least %d",
				p.Clients, p.EventsTotal, minSSE))
		}
	}
}

func runSweepPhase(client *http.Client, base string, clients int, dur time.Duration) (SweepPhase, error) {
	before, err := fetchStats(client, base)
	if err != nil {
		return SweepPhase{}, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	var wg sync.WaitGroup
	perClient := make([]int64, clients)
	var clientErrs atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ev, _, err := consumeSSE(ctx, base+"/v1/events", 0)
			perClient[id] = ev
			if err != nil {
				clientErrs.Add(1)
			}
		}(i)
	}
	// Mid-phase observation, while every client is still attached: the
	// attached-client count and the relay's upstream queue depth.
	var mid *server.StatsView
	select {
	case <-time.After(dur * 4 / 5):
		mid, _ = fetchStats(client, base)
	case <-ctx.Done():
	}
	wg.Wait()
	after, err := fetchStats(client, base)
	if err != nil {
		return SweepPhase{}, err
	}

	p := SweepPhase{
		Clients:         clients,
		DurationSeconds: dur.Seconds(),
		ClientErrors:    clientErrs.Load(),
	}
	for _, ev := range perClient {
		p.EventsTotal += ev
		p.EventsPerClientMax = max(p.EventsPerClientMax, ev)
	}
	p.EventsPerClientMin = p.EventsTotal
	for _, ev := range perClient {
		p.EventsPerClientMin = min(p.EventsPerClientMin, ev)
	}

	if before.Bus != nil && after.Bus != nil {
		p.BusPublishedDelta = after.Bus.Published - before.Bus.Published
		p.BusDroppedDelta = after.Bus.Dropped - before.Bus.Dropped
	}
	var beforeLag, afterLag *server.StageLatencyView
	if before.HTTP != nil {
		beforeLag = before.HTTP.SSELag
	}
	if after.HTTP != nil {
		afterLag = after.HTTP.SSELag
	}
	lag := deltaHistogram(beforeLag, afterLag)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	p.LagCount = lag.Count
	p.LagMeanMS = ms(lag.Mean())
	p.LagP50MS = ms(lag.Quantile(0.50))
	p.LagP90MS = ms(lag.Quantile(0.90))
	p.LagP99MS = ms(lag.Quantile(0.99))

	if before.Relay != nil && after.Relay != nil {
		p.RelayDeliveriesDelta = after.Relay.Deliveries - before.Relay.Deliveries
		p.RelayDroppedDelta = after.Relay.Dropped - before.Relay.Dropped
		p.RelayShedDelta = after.Relay.Shed - before.Relay.Shed
		p.RelayUpstreamDroppedDelta = after.Relay.UpstreamDropped - before.Relay.UpstreamDropped
	}
	dropped := p.RelayDroppedDelta + p.RelayShedDelta
	if total := p.RelayDeliveriesDelta + dropped; total > 0 {
		p.DropRate = float64(dropped) / float64(total)
	}
	if mid != nil && mid.Relay != nil {
		p.ClientsObserved = mid.Relay.Clients
		p.UpstreamDepthObserved = mid.Relay.UpstreamDepth
	}
	return p, nil
}

// deltaHistogram reconstructs the phase-local delivery-lag distribution
// from two cumulative per-bucket snapshots.
func deltaHistogram(before, after *server.StageLatencyView) metrics.HistogramSnapshot {
	h := metrics.HistogramSnapshot{Bounds: metrics.DurationBounds[:]}
	if after == nil || len(after.Buckets) == 0 {
		return h
	}
	h.Counts = make([]int64, len(after.Buckets))
	copy(h.Counts, after.Buckets)
	sum := after.SumSeconds
	if before != nil {
		for i := range before.Buckets {
			if i < len(h.Counts) {
				h.Counts[i] -= before.Buckets[i]
			}
		}
		sum -= before.SumSeconds
	}
	for _, c := range h.Counts {
		h.Count += c
	}
	h.Sum = time.Duration(sum * float64(time.Second))
	return h
}

// consumeSSE reads /v1/events until the context ends, counting delivered
// events (frames carrying a data: line). A nonzero gap sleeps between
// frames to simulate a slow consumer; the server's bounded per-subscriber
// queue turns that backpressure into drops, which the report surfaces
// from the server side.
func consumeSSE(ctx context.Context, url string, gap time.Duration) (eventCount, byteCount int64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, err
	}
	// No client timeout here: the stream is meant to live for the soak.
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}

	rd := bufio.NewReader(resp.Body)
	inFrame := false
	for {
		line, err := rd.ReadString('\n')
		byteCount += int64(len(line))
		if err != nil {
			// The soak deadline cancelling the request surfaces as a read
			// error; that is the normal way a client ends.
			if ctx.Err() != nil {
				return eventCount, byteCount, nil
			}
			return eventCount, byteCount, err
		}
		switch {
		case strings.HasPrefix(line, "data:"):
			inFrame = true
		case line == "\n" && inFrame:
			eventCount++
			inFrame = false
			if gap > 0 {
				select {
				case <-ctx.Done():
					return eventCount, byteCount, nil
				case <-time.After(gap):
				}
			}
		}
	}
}

func fetchStats(client *http.Client, base string) (*server.StatsView, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var v server.StatsView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// serverDelta differences the server's counters across the soak. Counter
// deltas are exact; histogram quantiles are not differencable, so the lag
// section reports the after-soak distribution alongside its count delta.
func serverDelta(before, after *server.StatsView) *ServerReport {
	rep := &ServerReport{}
	if before.Bus != nil && after.Bus != nil {
		rep.BusPublishedDelta = after.Bus.Published - before.Bus.Published
		rep.BusDroppedDelta = after.Bus.Dropped - before.Bus.Dropped
	}
	beforeCounts := map[string]int64{}
	if before.HTTP != nil {
		for _, e := range before.HTTP.Endpoints {
			beforeCounts[e.Endpoint] = e.Latency.Count
		}
	}
	if after.HTTP != nil {
		for _, e := range after.HTTP.Endpoints {
			d := e.Latency.Count - beforeCounts[e.Endpoint]
			rep.HTTPRequestsDelta += d
			rep.Endpoints = append(rep.Endpoints, ServerEndpointDelta{
				Endpoint:      e.Endpoint,
				RequestsDelta: d,
				LatencyAfter:  e.Latency,
			})
		}
		if after.HTTP.SSELag != nil {
			rep.SSELagAfter = after.HTTP.SSELag
			rep.SSELagCountDelta = after.HTTP.SSELag.Count
			if before.HTTP != nil && before.HTTP.SSELag != nil {
				rep.SSELagCountDelta -= before.HTTP.SSELag.Count
			}
		}
	}
	rep.SubscribersAtEnd = after.Subscribers
	if after.Feeds != nil {
		cov := after.Feeds.Coverage
		rep.FeedCoverage = &cov
	}
	if after.Relay != nil {
		rep.RelayAtEnd = after.Relay
		if before.Relay != nil {
			rep.RelayDeliveriesDelta = after.Relay.Deliveries - before.Relay.Deliveries
			rep.RelayDroppedDelta = after.Relay.Dropped - before.Relay.Dropped
			rep.RelayShedDelta = after.Relay.Shed - before.Relay.Shed
			rep.RelayUpstreamDroppedDelta = after.Relay.UpstreamDropped - before.Relay.UpstreamDropped
		}
	}
	return rep
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keplerload:", err)
	os.Exit(1)
}
