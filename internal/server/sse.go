package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kepler/internal/events"
)

// sseBatchMax bounds how many queued events one SSE write coalesces. Large
// enough to drain a bin burst in a handful of writes, small enough that a
// slow client never stalls behind one enormous buffered write.
const sseBatchMax = 64

// handleEvents streams the bus over Server-Sent Events. Each bus event
// becomes one SSE frame:
//
//	id: <bus sequence number>
//	event: <kind>
//	data: <EventView JSON>
//
// with comment-only keepalive frames at the heartbeat interval. Queued
// events are coalesced: everything waiting in the subscription (up to
// sseBatchMax) is marshaled into one buffered write with a single flush,
// so a bin-close burst costs a client O(1) syscalls, not O(events).
//
// Clients subscribe to the relay (events.Relay), never to the bus — a
// thousand streams cost ingestion exactly one subscriber. Each client's
// queue is bounded (Options.SSEBuffer): a client that stops reading blocks
// only its own writer goroutine, its queue fills, and further events are
// dropped for it alone — drop totals appear in /v1/stats under relay. A
// client that was only lagging, and reads again, re-joins the relay after
// the last event it was sent and gets the gap from the replay ring, so it
// loses nothing while the ring still holds the whole gap.
// ?kinds=outage_resolved,incident filters server-side, before the client's
// queue.
//
// A reconnecting client sends the standard Last-Event-ID header (every
// frame's id is the bus sequence number) and first receives the events it
// missed, replayed from the bus's in-memory ring — which the daemon seeds
// from the durable store on boot, so resume even works across a restart.
// Registration and backlog capture are atomic, making delivery
// exactly-once; if the requested position has already been evicted from
// the ring, the replay starts at the oldest retained event after a
// ": resume incomplete" comment.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Relay == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "event bus not configured"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": "streaming unsupported"})
		return
	}

	// Only an explicit Last-Event-ID resumes from the replay ring; a fresh
	// client gets live delivery only (a new subscriber owes nothing from
	// the past, and on a long-running daemon the ring is full of history
	// it never saw).
	var lastID uint64
	resuming := false
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("Last-Event-ID must be a previously served numeric event id, got %q", raw),
			})
			return
		}
		lastID, resuming = v, true
	}

	var allow map[events.Kind]bool
	if raw := r.URL.Query().Get("kinds"); raw != "" {
		allow = make(map[events.Kind]bool)
		for _, k := range strings.Split(raw, ",") {
			allow[events.Kind(strings.TrimSpace(k))] = true
		}
	}

	var (
		stream   *events.RelayClient
		backlog  []events.Event
		complete = true
	)
	if resuming {
		stream, backlog, complete = s.opts.Relay.SubscribeFrom(lastID, s.opts.SSEBuffer, allow)
	} else {
		stream = s.opts.Relay.Subscribe(s.opts.SSEBuffer, allow)
	}
	defer func() { stream.Close() }() // the stream may be replaced below
	s.opts.Logger.Debug("sse stream open", "remote", r.RemoteAddr, "resuming", resuming,
		"backlog", len(backlog), "complete", complete)
	defer func() {
		s.opts.Logger.Debug("sse stream closed", "remote", r.RemoteAddr, "dropped", stream.Dropped())
	}()
	if svc := s.opts.Service; svc != nil {
		svc.SSEConnected.Add(1)
		svc.SSEActive.Add(1)
		defer svc.SSEActive.Add(-1)
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An immediate comment both commits the response headers and lets
	// clients detect liveness before the first event.
	fmt.Fprint(w, ": stream open\n\n")
	if !complete {
		fmt.Fprint(w, ": resume incomplete\n\n")
	}
	fl.Flush()

	var (
		buf    bytes.Buffer // reused frame buffer across batches
		stamps []time.Time  // publication stamps of live events in the batch
		// last is the sequence the client is complete up to: it was sent
		// every event it subscribed to up to last. A live-only stream
		// learns its starting point from its first event. lost is the
		// stream's drop count already dealt with.
		last = lastID
		lost int64
	)
	// writeBatch coalesces a batch of events into one write and one flush,
	// preserving event order. Delivery lag (bus publication to completed
	// client write) is observed per event after the flush; only live
	// deliveries count — backlog events carry publication stamps from
	// before this connection existed (possibly a prior process).
	writeBatch := func(evs []events.Event, live bool) bool {
		buf.Reset()
		stamps = stamps[:0]
		for _, ev := range evs {
			if allow != nil && !allow[ev.Kind] {
				continue
			}
			data, err := json.Marshal(s.eventView(ev))
			if err != nil {
				continue
			}
			fmt.Fprintf(&buf, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
			if live && !ev.PublishedAt.IsZero() {
				stamps = append(stamps, ev.PublishedAt)
			}
		}
		if len(evs) > 0 {
			last = evs[len(evs)-1].Seq
		}
		if buf.Len() == 0 {
			return true
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return false // client went away mid-write
		}
		fl.Flush()
		if s.opts.HTTP != nil {
			for _, at := range stamps {
				s.opts.HTTP.SSELag.Observe(time.Since(at))
			}
		}
		return true
	}
	// Missed events first: everything published after Last-Event-ID was
	// captured atomically with the subscription, so the transition from
	// backlog to live delivery neither drops nor repeats an event.
	if !writeBatch(backlog, false) {
		return
	}

	heartbeat := time.NewTicker(s.opts.Heartbeat)
	defer heartbeat.Stop()

	batch := make([]events.Event, 0, sseBatchMax)
	for {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				// Bus closed: daemon shutdown. End the stream cleanly.
				fmt.Fprint(w, "event: bye\ndata: {}\n\n")
				fl.Flush()
				return
			}
			// Coalesce whatever else is already queued into this write. A
			// close mid-drain just ends the batch; the next select observes
			// the closed channel and says bye.
			batch = append(batch[:0], ev)
		drain:
			for len(batch) < sseBatchMax {
				select {
				case ev2, ok2 := <-stream.Events():
					if !ok2 {
						break drain
					}
					batch = append(batch, ev2)
				default:
					break drain
				}
			}
			if last == 0 {
				last = batch[0].Seq - 1
			}
			live := true
			if d := stream.Dropped(); d > lost {
				// The client's queue overflowed while it lagged. Events taken
				// before the overflow precede the first lost one, but this
				// batch may reach past it. Re-join after last: if the replay
				// ring still holds everything since, its backlog replaces the
				// batch and the new queue carries on, exactly once, as for a
				// reconnecting client. If not, the gap is lost, as it is
				// without a ring, and the stream carries on as it was.
				lost = d
				next, backlog, complete := s.opts.Relay.SubscribeFrom(last, s.opts.SSEBuffer, allow)
				if complete {
					stream.Close()
					stream, batch, live, lost = next, backlog, false, 0
				} else {
					next.Close()
				}
			}
			if !writeBatch(batch, live) {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
