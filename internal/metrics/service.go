package metrics

import (
	"fmt"
	"sync/atomic"
)

// ServiceStats collects the serving layer's runtime counters: HTTP request
// accounting from internal/server and event-bus publish/drop accounting
// from internal/events. All fields are atomics, safe for concurrent update
// from request handlers, SSE writers and the ingestion goroutine alike.
type ServiceStats struct {
	HTTPRequests atomic.Int64 // API requests served (all endpoints)
	HTTPErrors   atomic.Int64 // requests answered with a 4xx/5xx status
	SSEConnected atomic.Int64 // SSE streams opened over the process lifetime
	SSEActive    atomic.Int64 // currently connected SSE streams (gauge)

	EventsPublished atomic.Int64 // events fanned out by the bus
	EventsDropped   atomic.Int64 // per-subscriber deliveries lost to full queues
}

// ServiceSnapshot is a point-in-time copy of ServiceStats, tagged like
// StoreSnapshot.
type ServiceSnapshot struct {
	HTTPRequests    int64 `json:"http_requests" metric:"kepler_http_requests_total,counter" help:"API requests served."`
	HTTPErrors      int64 `json:"http_errors" metric:"kepler_http_errors_total,counter" help:"Requests answered with a 4xx/5xx status."`
	SSEConnected    int64 `json:"sse_connected" metric:"kepler_sse_connected_total,counter" help:"SSE streams opened over the process lifetime."`
	SSEActive       int64 `json:"sse_active" metric:"kepler_sse_active,gauge" help:"Currently connected SSE streams."`
	EventsPublished int64 `json:"events_published" metric:"kepler_events_published_total,counter" help:"Events fanned out by the bus."`
	EventsDropped   int64 `json:"events_dropped" metric:"kepler_events_dropped_total,counter" help:"Per-subscriber deliveries lost to full queues."`
}

// Snapshot copies the current counter values.
func (s *ServiceStats) Snapshot() ServiceSnapshot {
	return ServiceSnapshot{
		HTTPRequests:    s.HTTPRequests.Load(),
		HTTPErrors:      s.HTTPErrors.Load(),
		SSEConnected:    s.SSEConnected.Load(),
		SSEActive:       s.SSEActive.Load(),
		EventsPublished: s.EventsPublished.Load(),
		EventsDropped:   s.EventsDropped.Load(),
	}
}

// String renders the snapshot as a single log-friendly line.
func (s ServiceSnapshot) String() string {
	return fmt.Sprintf("http=%d errors=%d sse=%d/%d events=%d dropped=%d",
		s.HTTPRequests, s.HTTPErrors, s.SSEActive, s.SSEConnected,
		s.EventsPublished, s.EventsDropped)
}
