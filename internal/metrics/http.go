package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HTTPStats collects serving-path telemetry: per-endpoint request latency
// histograms with status-class counters, and the SSE delivery-lag histogram.
// Endpoints are registered lazily under a mutex on first observation (the
// route set is tiny and stabilizes immediately); the hot path afterwards is
// one map lookup plus atomic increments. Safe for concurrent use from every
// request handler goroutine.
type HTTPStats struct {
	mu        sync.Mutex
	endpoints map[string]*EndpointStats

	// SSELag observes the wall-clock delay between an event's bus
	// publication and its write to an SSE client — one observation per live
	// delivery per client, so a single slow subscriber visibly drags the
	// upper quantiles. Ring-replayed backlog deliveries are excluded (their
	// publication stamps predate the connection).
	SSELag Histogram
}

// NewHTTPStats builds an empty collector.
func NewHTTPStats() *HTTPStats {
	return &HTTPStats{endpoints: make(map[string]*EndpointStats)}
}

// EndpointStats aggregates one route pattern's latency and status classes.
type EndpointStats struct {
	latency Histogram
	// classes counts responses by status/100; index 0 collects anything
	// outside 1xx..5xx.
	classes [6]atomic.Int64
}

// Observe records one served request against its route pattern. For SSE
// streams the duration is the whole connection lifetime, which lands in the
// +Inf bucket by design — connection longevity, not request latency.
func (h *HTTPStats) Observe(endpoint string, status int, d time.Duration) {
	h.mu.Lock()
	e := h.endpoints[endpoint]
	if e == nil {
		e = &EndpointStats{}
		h.endpoints[endpoint] = e
	}
	h.mu.Unlock()
	e.latency.Observe(d)
	c := status / 100
	if c < 1 || c > 5 {
		c = 0
	}
	e.classes[c].Add(1)
}

// EndpointSnapshot is a point-in-time copy of one endpoint's stats.
type EndpointSnapshot struct {
	Endpoint string
	Latency  HistogramSnapshot
	// Statuses maps status classes ("2xx".."5xx", "other") to response
	// counts; zero classes are omitted.
	Statuses map[string]int64
}

// HTTPSnapshot is a point-in-time copy of HTTPStats, endpoints ascending by
// pattern.
type HTTPSnapshot struct {
	Endpoints []EndpointSnapshot
	SSELag    HistogramSnapshot
}

// Snapshot copies the current state.
func (h *HTTPStats) Snapshot() HTTPSnapshot {
	h.mu.Lock()
	eps := make([]*EndpointStats, 0, len(h.endpoints))
	names := make([]string, 0, len(h.endpoints))
	for name, e := range h.endpoints {
		names = append(names, name)
		eps = append(eps, e)
	}
	h.mu.Unlock()

	snap := HTTPSnapshot{SSELag: h.SSELag.Snapshot()}
	for i, e := range eps {
		es := EndpointSnapshot{
			Endpoint: names[i],
			Latency:  e.latency.Snapshot(),
			Statuses: make(map[string]int64),
		}
		for c := range e.classes {
			n := e.classes[c].Load()
			if n == 0 {
				continue
			}
			label := "other"
			if c >= 1 {
				label = fmt.Sprintf("%dxx", c)
			}
			es.Statuses[label] = n
		}
		snap.Endpoints = append(snap.Endpoints, es)
	}
	sort.Slice(snap.Endpoints, func(i, j int) bool {
		return snap.Endpoints[i].Endpoint < snap.Endpoints[j].Endpoint
	})
	return snap
}

// FeedStats counts feed-health transitions as published to the event bus —
// post-gate, so restart re-ingest never double-counts. Updated from the
// daemon's chained hooks; read by /v1/stats and /metrics.
type FeedStats struct {
	Degraded  atomic.Int64 // feed_degraded events published
	Recovered atomic.Int64 // feed_recovered events published
}

// FeedStatsSnapshot is a point-in-time copy of FeedStats, tagged like
// StoreSnapshot.
type FeedStatsSnapshot struct {
	Degraded  int64 `json:"degraded_events" metric:"kepler_feed_degraded_total,counter" help:"Feed degraded transitions published."`
	Recovered int64 `json:"recovered_events" metric:"kepler_feed_recovered_total,counter" help:"Feed recovered transitions published."`
}

// Snapshot copies the current counter values.
func (s *FeedStats) Snapshot() FeedStatsSnapshot {
	return FeedStatsSnapshot{
		Degraded:  s.Degraded.Load(),
		Recovered: s.Recovered.Load(),
	}
}
