// Package server exposes a running detection engine over HTTP: a JSON API
// for resolved and ongoing outages, classified incidents and runtime
// statistics, plus a Server-Sent-Events stream that multiplexes the outage
// event bus (internal/events) to many concurrent clients. API reads never
// touch engine state: they serve from an immutable snapshot the ingestion
// goroutine swaps in at each bin barrier (via the engine's BinClosed hook),
// so a burst of API traffic cannot slow record ingestion, and a stalled
// SSE client only ever loses its own events (bounded queue, drops counted).
//
// Endpoints:
//
//	GET /healthz          liveness + readiness
//	GET /v1/outages       resolved outages (the batch-equivalent output);
//	                      cursor pagination via ?after=<id>&limit=<n>
//	GET /v1/outages/open  ongoing outages as of the last closed bin
//	GET /v1/incidents     classified signals; ?kind=link|as|operator|pop,
//	                      same ?after=/&limit= cursors
//	GET /v1/stats         ingestion, bus, store and HTTP counters
//	GET /v1/events        SSE stream; ?kinds=comma,separated filter;
//	                      Last-Event-ID resumes from the bus replay ring
//
// History entries carry stable ascending ids (their position in the
// resolved/incident sequence, which recovery rebuilds identically), so
// ?after= cursors remain valid across daemon restarts.
package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/metrics"
	"kepler/internal/slogx"
)

// HistoryReader pages resolved outages and incidents by ordinal: entry i of
// either sequence, independent of how much history exists. store.Store
// implements it over sealed segment files with an offset index plus its
// in-memory tail, so serving deep cursors touches one positioned read, not
// resident memory. Implementations must be safe for concurrent use and
// must serve ordinals below the published totals immutably (history is
// append-only; a snapshot's totals only ever grow stale, never wrong).
type HistoryReader interface {
	ReadOutages(start, count int) ([]core.Outage, error)
	ReadIncidents(start, count int) ([]core.Incident, error)
}

// Snapshot is the immutable read model served by the API. The ingestion
// goroutine builds a fresh one at each bin barrier and publishes it
// atomically; handlers only ever read a published snapshot.
type Snapshot struct {
	// At is the bin close (or flush instant) the snapshot reflects.
	At time.Time
	// Open holds the ongoing outages as of At.
	Open []core.OutageStatus
	// History serves /v1/outages and /v1/incidents pages by ordinal.
	// Required; the BuildSnapshot functions set it.
	History HistoryReader
	// ResolvedTotal/IncidentsTotal are the history sizes as of At (ids
	// 1..total are the pagination cursors).
	ResolvedTotal  int
	IncidentsTotal int

	// cache holds the ETag and pre-marshaled response bodies PublishSnapshot
	// attaches; handlers treat a nil cache as a plain uncached snapshot.
	cache *snapCache
	// Pending holds the signal groups parked behind in-flight probe
	// campaigns as of At (asynchronous-prober deployments only).
	Pending []core.PendingConfirmation
	// ProbeOutcomes holds recent campaign resolutions, oldest first,
	// bounded by the caller.
	ProbeOutcomes []core.ProbeOutcome
	// Traces holds the retained provenance traces (core.Config.Tracing):
	// trace j describes resolved outage TraceBase+j (id TraceBase+j+1).
	// TraceBase counts older traces dropped by the store's retention cap.
	// Empty when tracing is disabled.
	Traces    []core.OutageTrace
	TraceBase int
	// Feeds is the feed-health watchdog snapshot as of At (stream time).
	// Nil when the watchdog is disabled (core.Config.FeedSilence zero).
	Feeds *bgpstream.FeedSnapshot
}

// BuildSnapshot captures the engine's queryable state. It reads the engine,
// so it runs on the ingestion goroutine between Process calls or inside a
// BinClosed hook. resolved is the caller-accumulated completed-outage list
// (the engine does not retain outages after they are drained); the
// snapshot aliases it, which is safe because outage accumulation is
// append-only.
func BuildSnapshot(at time.Time, eng *core.Engine, resolved []core.Outage) *Snapshot {
	return BuildSnapshotFrom(at, eng.OpenOutageStatuses(), resolved, eng.Incidents())
}

// BuildSnapshotFrom assembles a snapshot over caller-held history slices,
// which it aliases: the caller only ever appends to them.
func BuildSnapshotFrom(at time.Time, open []core.OutageStatus, resolved []core.Outage, incidents []core.Incident) *Snapshot {
	return BuildSnapshotPaged(at, open, sliceHistory{resolved, incidents}, len(resolved), len(incidents))
}

// BuildSnapshotPaged assembles a snapshot over a history reader (the
// daemon's store): only the totals and the bounded open set live in the
// snapshot, so resident memory does not grow with history.
func BuildSnapshotPaged(at time.Time, open []core.OutageStatus, hist HistoryReader, resolvedTotal, incidentsTotal int) *Snapshot {
	return &Snapshot{At: at, Open: open, History: hist,
		ResolvedTotal: resolvedTotal, IncidentsTotal: incidentsTotal}
}

// sliceHistory is the HistoryReader of BuildSnapshotFrom. The server reads
// it only inside the snapshot's totals, the slices' lengths.
type sliceHistory struct {
	outs []core.Outage
	incs []core.Incident
}

func (h sliceHistory) ReadOutages(start, count int) ([]core.Outage, error) {
	return h.outs[start : start+count], nil
}

func (h sliceHistory) ReadIncidents(start, count int) ([]core.Incident, error) {
	return h.incs[start : start+count], nil
}

// readPage reads exactly count history entries from start; a short read
// means the reader broke the HistoryReader contract.
func readPage[T any](read func(start, count int) ([]T, error), start, count int, what string) ([]T, error) {
	if count == 0 {
		return nil, nil
	}
	rows, err := read(start, count)
	if err != nil {
		return nil, err
	}
	if len(rows) != count {
		return nil, fmt.Errorf("history returned %d of %d %s", len(rows), count, what)
	}
	return rows, nil
}

// Options configures a Server.
type Options struct {
	// Bus feeds the SSE stream. Required for /v1/events; other endpoints
	// work without it.
	Bus *events.Bus
	// Relay is the fan-out tier /v1/events clients subscribe to: N
	// streaming clients cost the ingestion path one bus subscriber. Nil
	// makes New build one over Bus, which Bus.Close shuts down; one passed
	// in must be built over the same Bus (resume replays its ring).
	Relay *events.Relay
	// Service receives HTTP/SSE counter updates; shared with the bus so
	// /v1/stats reports both sides. Optional.
	Service *metrics.ServiceStats
	// Ingest supplies live engine ingestion counters for /v1/stats
	// (atomics only — safe from any goroutine). Optional.
	Ingest func() metrics.IngestSnapshot
	// Store supplies durable-history counters (WAL appends, compactions,
	// recovery) for /v1/stats when the daemon runs with a data dir. Optional.
	Store func() metrics.StoreSnapshot
	// Checkpoint supplies the engine-checkpoint counters — what a
	// checkpoint cost the ingest goroutine and what it cost the saver, how
	// many were deferred, and how much the last capture had to re-encode —
	// for /v1/stats and /metrics. Optional.
	Checkpoint func() metrics.CheckpointSnapshot
	// Probe supplies active-measurement counters (campaigns, budget
	// denials, promotions) for /v1/stats and /metrics when the daemon runs
	// an asynchronous prober. Optional.
	Probe func() metrics.ProbeSnapshot
	// BinStage supplies the staged bin-close latency histograms for
	// /v1/stats and the /metrics histogram exposition. Optional.
	BinStage func() metrics.BinStageSnapshot
	// HTTP collects per-endpoint latency/status histograms and the SSE
	// delivery-lag histogram, surfaced in /v1/stats and /metrics. Optional.
	HTTP *metrics.HTTPStats
	// Feed counts feed-health transitions published to the bus (post-gate)
	// for /v1/stats and /metrics. Optional.
	Feed *metrics.FeedStats
	// FeedFloor is the feed coverage ratio below which /healthz degrades to
	// 503 (readiness withdrawn while most peer sessions are silent). Zero
	// disables the check; it only applies when the snapshot carries a
	// watchdog section.
	FeedFloor float64
	// Namer resolves PoP display names (e.g. topology.World.PoPName in
	// replay mode, where the world is known). Optional.
	Namer func(colo.PoP) string
	// SSEBuffer is the per-client event queue capacity (default 256).
	// When a client stalls past it, its events are dropped and counted.
	SSEBuffer int
	// Heartbeat is the SSE keepalive comment interval (default 15s).
	Heartbeat time.Duration
	// Logger receives SSE stream lifecycle reports at debug level. Nil
	// discards them.
	Logger *slog.Logger
}

// Server serves the live API. Use New; the zero value is not usable.
type Server struct {
	opts  Options
	snap  atomic.Pointer[Snapshot]
	ready atomic.Bool
	mux   *http.ServeMux

	// bootID and pubSeq make ETags: unique per process per published
	// snapshot, so If-None-Match can never false-match across restarts
	// (a false mismatch merely costs one full response).
	bootID int64
	pubSeq atomic.Uint64
}

// New builds a server. Publish a first snapshot and SetReady(true) once
// ingestion starts; until then /healthz reports starting and the v1
// endpoints serve empty state.
func New(opts Options) *Server {
	if opts.SSEBuffer <= 0 {
		opts.SSEBuffer = 256
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 15 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slogx.Discard()
	}
	if opts.Relay == nil && opts.Bus != nil {
		// Upstream queue at least as deep as one client's (and no shallower
		// than the relay's default): a burst a client can absorb is never
		// lost upstream of it.
		opts.Relay = events.NewRelay(opts.Bus, events.RelayOptions{Buffer: max(opts.SSEBuffer, 1024)})
	}
	s := &Server{opts: opts, bootID: time.Now().UnixNano()}
	s.snap.Store(&Snapshot{History: sliceHistory{}, cache: &snapCache{etag: `"0-0"`}})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/health/feeds", s.handleFeeds)
	s.mux.HandleFunc("GET /v1/outages", s.handleOutages)
	s.mux.HandleFunc("GET /v1/outages/open", s.handleOpen)
	s.mux.HandleFunc("GET /v1/outages/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/incidents", s.handleIncidents)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/probes", s.handleProbes)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// PublishSnapshot atomically swaps the read model. Called from the
// ingestion goroutine (BinClosed hook and after the final flush). The
// publish pre-marshals the bounded read views (/v1/outages/open and the
// stats header) and mints the snapshot's ETag; unbounded views memoize on
// first request instead, keeping the bin barrier O(open outages).
func (s *Server) PublishSnapshot(snap *Snapshot) {
	if snap == nil {
		return
	}
	c := &snapCache{etag: fmt.Sprintf("\"%x-%x\"", s.bootID, s.pubSeq.Add(1))}
	c.openBody = marshalBody(s.openResponse(snap))
	snap.cache = c
	s.snap.Store(snap)
}

// Snapshot returns the currently served read model.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// SetReady flips the /healthz readiness signal.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Handler returns the root handler with request accounting and per-endpoint
// latency instrumentation applied.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		svc, hs := s.opts.Service, s.opts.HTTP
		if svc == nil && hs == nil {
			s.mux.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		if svc != nil {
			svc.HTTPRequests.Add(1)
		}
		// The matched route ("GET /v1/outages/{id}/trace") keeps label
		// cardinality fixed regardless of path values; a wrong method or an
		// unknown path matches none. Looked up here rather than read back
		// from http.Request.Pattern, which needs Go 1.23.
		var pat string
		if hs != nil {
			if _, pat = s.mux.Handler(r); pat == "" {
				pat = "unmatched"
			}
		}
		cw := &countingWriter{ResponseWriter: w}
		s.mux.ServeHTTP(cw, r)
		status := cw.status
		if status == 0 {
			status = http.StatusOK // handler never called WriteHeader
		}
		if svc != nil && status >= 400 {
			svc.HTTPErrors.Add(1)
		}
		if hs != nil {
			// SSE streams record their whole connection lifetime here (the
			// +Inf bucket); their per-event latency is the delivery-lag
			// histogram.
			hs.Observe(pat, status, time.Since(start))
		}
	})
}

// countingWriter records the response status for error accounting.
type countingWriter struct {
	http.ResponseWriter
	status int
}

func (c *countingWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
	c.ResponseWriter.WriteHeader(status)
}

// Flush forwards flushing so SSE works through the counting wrapper.
func (c *countingWriter) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok"}
	snap := s.snap.Load()
	if !snap.At.IsZero() {
		body["last_bin_close"] = snap.At
	}
	if s.opts.Ingest != nil {
		body["bin_lag_seconds"] = s.opts.Ingest().BinLag.Seconds()
	}
	if snap.Feeds != nil {
		body["feed_coverage"] = snap.Feeds.Coverage()
	}
	if !s.ready.Load() {
		body["status"] = "starting"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	// Readiness also demands a minimally live feed: below the coverage
	// floor the detector is formally running but effectively blind, so
	// stop advertising health (load balancers should drain, not route).
	if s.opts.FeedFloor > 0 && snap.Feeds != nil && snap.Feeds.Coverage() < s.opts.FeedFloor {
		body["status"] = "degraded"
		body["feed_floor"] = s.opts.FeedFloor
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleFeeds serves the feed-health watchdog snapshot: per-collector and
// per-peer-session liveness as of the last closed bin, in stream time. 404
// when the watchdog is disabled.
func (s *Server) handleFeeds(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap.Feeds == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": "feed watchdog disabled (configure a feed silence threshold)",
		})
		return
	}
	if notModified(w, r, snap.cache) {
		return
	}
	writeJSON(w, http.StatusOK, s.feedHealthView(snap.Feeds))
}

// handleTrace serves the provenance trace of one resolved outage: the
// evidence chain (signal groups, disambiguation steps, collateral folds,
// probe verdicts) behind the detection. 404 distinguishes an unknown outage
// id from a trace that was never recorded (tracing disabled) or has aged
// out of the store's retention window.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "outage id must be a positive integer"})
		return
	}
	snap := s.snap.Load()
	if id > uint64(snap.ResolvedTotal) {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown outage id"})
		return
	}
	if notModified(w, r, snap.cache) {
		return
	}
	idx := int(id-1) - snap.TraceBase
	switch {
	case len(snap.Traces) == 0:
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no trace recorded (tracing disabled?)"})
		return
	case idx < 0:
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "trace no longer retained"})
		return
	case idx >= len(snap.Traces):
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no trace recorded for this outage"})
		return
	}
	writeJSON(w, http.StatusOK, s.traceView(id, &snap.Traces[idx]))
}

// pageParams is a validated pagination cursor: entries with id > after, at
// most limit of them (0 = unbounded).
type pageParams struct {
	after uint64
	limit int
}

// parsePage validates ?after= and ?limit=. Malformed cursors are rejected
// outright — a mistyped cursor silently serving the full multi-month
// history is exactly the unbounded-response bug pagination exists to fix.
func parsePage(r *http.Request) (pageParams, error) {
	var p pageParams
	q := r.URL.Query()
	if raw := q.Get("after"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return p, fmt.Errorf("after must be a non-negative integer id, got %q", raw)
		}
		p.after = v
	}
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			return p, fmt.Errorf("limit must be a positive integer, got %q", raw)
		}
		p.limit = v
	}
	return p, nil
}

// window resolves the cursor against an n-entry history with ids 1..n:
// the first index to serve, how many, and the next_after cursor (non-zero
// only when entries remain past this page).
func (p pageParams) window(n int) (start, count int, nextAfter uint64) {
	if p.after >= uint64(n) {
		return n, 0, 0
	}
	start = int(p.after)
	count = n - start
	if p.limit > 0 && count > p.limit {
		count = p.limit
		nextAfter = uint64(start + count)
	}
	return start, count, nextAfter
}

// outagesResponse is the /v1/outages response shape.
type outagesResponse struct {
	AsOf      time.Time    `json:"as_of"`
	Count     int          `json:"count"`
	Total     int          `json:"total"`
	NextAfter uint64       `json:"next_after,omitempty"`
	Outages   []OutageView `json:"outages"`
}

// buildOutagesPage resolves one cursor page against the snapshot's history.
func (s *Server) buildOutagesPage(snap *Snapshot, p pageParams) (outagesResponse, error) {
	total := snap.ResolvedTotal
	start, count, nextAfter := p.window(total)
	rows, err := readPage(snap.History.ReadOutages, start, count, "outages")
	if err != nil {
		return outagesResponse{}, err
	}
	outs := make([]OutageView, count)
	for i := range rows {
		outs[i] = s.outageView(uint64(start+i)+1, &rows[i])
	}
	return outagesResponse{snap.At, count, total, nextAfter, outs}, nil
}

func (s *Server) handleOutages(w http.ResponseWriter, r *http.Request) {
	p, err := parsePage(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	snap := s.snap.Load()
	if notModified(w, r, snap.cache) {
		return
	}
	// The no-cursor request is the hot default page: serve the memoized
	// bytes, marshaled at most once per published snapshot.
	if r.URL.RawQuery == "" && snap.cache != nil {
		body := snap.cache.memoize(&snap.cache.outagesBody, func() []byte {
			resp, err := s.buildOutagesPage(snap, p)
			if err != nil {
				return nil
			}
			return marshalBody(resp)
		})
		if body != nil {
			writeJSONBody(w, body, nil)
			return
		}
	}
	resp, err := s.buildOutagesPage(snap, p)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// openResponse builds the full /v1/outages/open body (pre-marshaled at
// snapshot publish — the open set is bounded by ongoing outages, not
// history).
func (s *Server) openResponse(snap *Snapshot) any {
	outs := make([]OpenOutageView, len(snap.Open))
	for i := range snap.Open {
		outs[i] = s.openView(&snap.Open[i])
	}
	return struct {
		AsOf    time.Time        `json:"as_of"`
		Count   int              `json:"count"`
		Outages []OpenOutageView `json:"outages"`
	}{snap.At, len(outs), outs}
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if notModified(w, r, snap.cache) {
		return
	}
	if snap.cache != nil {
		writeJSONBody(w, snap.cache.openBody, func() any { return s.openResponse(snap) })
		return
	}
	writeJSON(w, http.StatusOK, s.openResponse(snap))
}

// incidentsResponse is the /v1/incidents response shape.
type incidentsResponse struct {
	AsOf      time.Time      `json:"as_of"`
	Count     int            `json:"count"`
	Total     int            `json:"total"`
	NextAfter uint64         `json:"next_after,omitempty"`
	Incidents []IncidentView `json:"incidents"`
}

// incidentScanChunk bounds how many incidents a kind-filtered scan
// materializes at a time, so a filtered deep cursor never loads the whole
// history.
const incidentScanChunk = 512

// buildIncidentsPage resolves one incident cursor page. Ids index the
// unfiltered incident sequence, so cursors stay stable whether or not a
// kind filter is applied. Without a filter the page is the cursor window,
// read in one call; with one, the scan reads fixed-size chunks from the
// cursor until the page fills.
func (s *Server) buildIncidentsPage(snap *Snapshot, p pageParams, kind string) (incidentsResponse, error) {
	total := snap.IncidentsTotal
	if kind == "" {
		start, count, nextAfter := p.window(total)
		rows, err := readPage(snap.History.ReadIncidents, start, count, "incidents")
		if err != nil {
			return incidentsResponse{}, err
		}
		incs := make([]IncidentView, count)
		for i := range rows {
			incs[i] = s.incidentView(uint64(start+i)+1, &rows[i])
		}
		return incidentsResponse{snap.At, count, total, nextAfter, incs}, nil
	}
	incs := make([]IncidentView, 0, 16)
	var nextAfter uint64
	start := int(min(p.after, uint64(total)))
	for base := start; base < total && nextAfter == 0; base += incidentScanChunk {
		rows, err := readPage(snap.History.ReadIncidents, base, min(incidentScanChunk, total-base), "incidents")
		if err != nil {
			return incidentsResponse{}, err
		}
		for i := range rows {
			if rows[i].Kind.String() != kind {
				continue
			}
			if p.limit > 0 && len(incs) == p.limit {
				nextAfter = incs[len(incs)-1].ID
				break
			}
			incs = append(incs, s.incidentView(uint64(base+i)+1, &rows[i]))
		}
	}
	return incidentsResponse{snap.At, len(incs), total, nextAfter, incs}, nil
}

func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	p, err := parsePage(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind != "" {
		switch kind {
		case "link", "as", "operator", "pop":
		default:
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": "kind must be one of link, as, operator, pop",
			})
			return
		}
	}
	snap := s.snap.Load()
	if notModified(w, r, snap.cache) {
		return
	}
	if r.URL.RawQuery == "" && snap.cache != nil {
		body := snap.cache.memoize(&snap.cache.incidentsBody, func() []byte {
			resp, err := s.buildIncidentsPage(snap, p, "")
			if err != nil {
				return nil
			}
			return marshalBody(resp)
		})
		if body != nil {
			writeJSONBody(w, body, nil)
			return
		}
	}
	resp, err := s.buildIncidentsPage(snap, p, kind)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleProbes serves the active-measurement view: campaigns currently in
// flight (parked signal groups awaiting verdicts) and recent resolutions,
// from the same immutable snapshot as every other read.
func (s *Server) handleProbes(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if notModified(w, r, snap.cache) {
		return
	}
	pend := make([]PendingProbeView, len(snap.Pending))
	for i := range snap.Pending {
		pend[i] = s.pendingView(&snap.Pending[i])
	}
	recent := make([]ProbeOutcomeView, len(snap.ProbeOutcomes))
	for i := range snap.ProbeOutcomes {
		recent[i] = s.probeOutcomeView(&snap.ProbeOutcomes[i])
	}
	writeJSON(w, http.StatusOK, struct {
		AsOf    time.Time          `json:"as_of"`
		Count   int                `json:"count"`
		Pending []PendingProbeView `json:"pending"`
		Recent  []ProbeOutcomeView `json:"recent"`
	}{snap.At, len(pend), pend, recent})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	resp := StatsView{
		Ready:      s.ready.Load(),
		SnapshotAt: snap.At,
		OpenCount:  len(snap.Open),
		Resolved:   snap.ResolvedTotal,
		Incidents:  snap.IncidentsTotal,
	}
	if s.opts.Ingest != nil {
		resp.Ingest = ingestView(s.opts.Ingest())
	}
	if s.opts.Store != nil {
		st := s.opts.Store()
		resp.Store = &st
	}
	if s.opts.Checkpoint != nil {
		resp.Checkpoint = checkpointView(s.opts.Checkpoint())
	}
	if s.opts.Probe != nil {
		pb := s.opts.Probe()
		resp.Probe = &pb
	}
	if s.opts.BinStage != nil {
		resp.BinClose = binCloseView(s.opts.BinStage())
	}
	if s.opts.Bus != nil {
		st := s.opts.Bus.Stats()
		resp.Bus = &st
		if depths := s.opts.Bus.SubscriberDepths(); len(depths) > 0 {
			resp.Subscribers = depths
		}
	}
	if s.opts.Relay != nil {
		info := s.opts.Relay.Info()
		resp.Relay = &info
		if depths := s.opts.Relay.ClientDepths(); len(depths) > 0 {
			resp.RelayClients = depths
		}
	}
	if s.opts.Service != nil {
		svc := s.opts.Service.Snapshot()
		resp.Service = &svc
	}
	if s.opts.HTTP != nil {
		resp.HTTP = httpView(s.opts.HTTP.Snapshot())
	}
	if snap.Feeds != nil {
		fv := s.feedHealthView(snap.Feeds)
		resp.Feeds = &fv
	}
	writeJSON(w, http.StatusOK, resp)
}
