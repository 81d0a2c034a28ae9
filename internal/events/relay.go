package events

import (
	"sort"
	"sync"
	"sync/atomic"

	"kepler/internal/metrics"
)

// Relay is the SSE fan-out tier: one upstream bus subscription feeding any
// number of downstream clients through per-client bounded queues, so a
// thousand streaming clients cost the ingestion path exactly one
// subscriber — the publisher's per-event work stays O(1) in client count,
// and a bin close can never slow down because clients piled up.
//
// All relay state is confined to a single goroutine: clients join and
// leave through a control channel serialized with fan-out, which is what
// makes resume exactly-once — a join captures the ring backlog up to the
// exact sequence the relay has already fanned out, and everything after
// arrives through the new client's queue.
//
// Downstream flow control is two-layered. A client whose own queue is full
// loses the event (dropped, counted — same contract as a direct bus
// subscriber). Separately, when the aggregate queued depth across all
// clients exceeds the MaxQueued budget, delivery stops for the rest of the
// fan-out pass — and because clients are visited oldest-join first, it is
// the newest joiners that shed under memory pressure, preserving service
// for established consumers.
type Relay struct {
	bus  *Bus
	up   *Subscriber
	ctl  chan relayCtl
	done chan struct{}
	m    *metrics.RelayStats

	maxQueued int

	// Goroutine-owned: the join-ordered client list and the sequence of the
	// last event fanned out.
	clients     []*RelayClient
	nextID      uint64
	lastRelayed uint64

	// byID mirrors the client set for concurrent observability reads
	// (Info, ClientDepths); the relay goroutine is the only writer.
	statsMu sync.Mutex
	byID    map[uint64]*RelayClient
}

// RelayOptions configures a Relay.
type RelayOptions struct {
	// Buffer is the upstream subscription queue capacity (default 1024).
	// It bounds the only queue the publisher ever touches; a relay that
	// stalls past it loses events like any other slow subscriber would.
	Buffer int
	// MaxQueued is the aggregate downstream queue budget, in events,
	// across all clients (default 16384). When exceeded mid-fan-out, the
	// remaining — newest-joined — clients shed the event. <= 0 applies the
	// default; use a very large value to effectively disable shedding.
	MaxQueued int
	// Metrics receives delivery/drop/shed counters. Optional; a private
	// instance backs Info when nil.
	Metrics *metrics.RelayStats
}

// RelayClient is one downstream registration.
type RelayClient struct {
	relay   *Relay
	id      uint64
	ch      chan Event
	minSeq  uint64        // deliver only events with Seq > minSeq (exactly-once resume)
	allow   map[Kind]bool // nil = all kinds (per-tenant kind filter)
	dropped atomic.Int64
	shed    atomic.Int64
}

// Events returns the client's delivery channel. It is closed when the
// client leaves or the relay shuts down (bus close).
func (c *RelayClient) Events() <-chan Event { return c.ch }

// Dropped returns how many events this client lost to its own full queue.
func (c *RelayClient) Dropped() int64 { return c.dropped.Load() }

// Shed returns how many events were withheld from this client by the
// aggregate load-shedding budget.
func (c *RelayClient) Shed() int64 { return c.shed.Load() }

// Close deregisters the client and closes its delivery channel. Safe to
// call multiple times and concurrently with relay shutdown.
func (c *RelayClient) Close() {
	r := c.relay
	select {
	case r.ctl <- relayCtl{leave: c}:
	case <-r.done:
		// Relay already shut down; every channel is closed.
	}
}

type relayCtl struct {
	join  *joinReq
	leave *RelayClient
}

type joinReq struct {
	after  uint64
	resume bool
	buffer int
	allow  map[Kind]bool
	reply  chan joinResp
}

type joinResp struct {
	client   *RelayClient
	backlog  []Event
	complete bool
}

// NewRelay subscribes the relay to the bus and starts its fan-out
// goroutine. The relay shuts down — closing every client channel — when
// the bus closes, after draining the events already queued upstream; Close
// shuts it down early.
func NewRelay(bus *Bus, opts RelayOptions) *Relay {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	if opts.MaxQueued <= 0 {
		opts.MaxQueued = 16384
	}
	m := opts.Metrics
	if m == nil {
		m = &metrics.RelayStats{}
	}
	r := &Relay{
		bus:       bus,
		up:        bus.Subscribe(opts.Buffer),
		ctl:       make(chan relayCtl),
		done:      make(chan struct{}),
		m:         m,
		maxQueued: opts.MaxQueued,
		byID:      make(map[uint64]*RelayClient),
	}
	r.lastRelayed = bus.Seq()
	go r.run()
	return r
}

// Close detaches the relay from the bus and shuts it down: the upstream
// subscription closes, the goroutine drains what was already queued, fans
// it out, and closes every client channel. Idempotent.
func (r *Relay) Close() {
	r.up.Close()
	<-r.done
}

func (r *Relay) run() {
	for {
		select {
		case ev, ok := <-r.up.Events():
			if !ok {
				r.shutdown()
				return
			}
			r.fanout(ev)
		case m := <-r.ctl:
			switch {
			case m.join != nil:
				r.handleJoin(m.join)
			case m.leave != nil:
				r.handleLeave(m.leave)
			}
		}
	}
}

// fanout offers one event to every client, oldest join first, under the
// aggregate queue budget.
func (r *Relay) fanout(ev Event) {
	r.lastRelayed = ev.Seq
	queued := 0
	for _, c := range r.clients {
		if ev.Seq <= c.minSeq || (c.allow != nil && !c.allow[ev.Kind]) {
			queued += len(c.ch)
			continue
		}
		if queued+len(c.ch) >= r.maxQueued {
			// Aggregate budget spent: this and every later (newer) client
			// sheds. queued only grows, so the cut is join-order monotone.
			c.shed.Add(1)
			r.m.Shed.Add(1)
			continue
		}
		select {
		case c.ch <- ev:
			r.m.Deliveries.Add(1)
		default:
			c.dropped.Add(1)
			r.m.Dropped.Add(1)
		}
		queued += len(c.ch)
	}
}

func (r *Relay) handleJoin(req *joinReq) {
	buffer := req.buffer
	if buffer < 1 {
		buffer = 1
	}
	r.nextID++
	c := &RelayClient{relay: r, id: r.nextID, ch: make(chan Event, buffer), allow: req.allow}
	var backlog []Event
	complete := true
	if req.resume {
		backlog, complete = r.bus.Replay(req.after)
		// Events beyond what the relay has fanned out stay upstream and
		// arrive through the queue; serving them from the ring too would
		// deliver twice.
		for len(backlog) > 0 && backlog[len(backlog)-1].Seq > r.lastRelayed {
			backlog = backlog[:len(backlog)-1]
		}
		c.minSeq = max(req.after, r.lastRelayed)
	} else {
		// A fresh client owes nothing from the past: nothing published
		// before this join, even if still queued upstream.
		c.minSeq = r.bus.Seq()
	}
	r.clients = append(r.clients, c)
	r.statsMu.Lock()
	r.byID[c.id] = c
	r.statsMu.Unlock()
	r.m.Joins.Add(1)
	r.m.Clients.Add(1)
	req.reply <- joinResp{client: c, backlog: backlog, complete: complete}
}

func (r *Relay) handleLeave(c *RelayClient) {
	for i, have := range r.clients {
		if have == c {
			r.clients = append(r.clients[:i], r.clients[i+1:]...)
			r.statsMu.Lock()
			delete(r.byID, c.id)
			r.statsMu.Unlock()
			close(c.ch)
			r.m.Leaves.Add(1)
			r.m.Clients.Add(-1)
			return
		}
	}
}

// shutdown closes every client channel and releases joiners blocked on the
// control channel.
func (r *Relay) shutdown() {
	for _, c := range r.clients {
		close(c.ch)
	}
	r.clients = nil
	r.statsMu.Lock()
	r.byID = make(map[uint64]*RelayClient)
	r.statsMu.Unlock()
	r.m.Clients.Store(0)
	close(r.done)
}

// Subscribe registers a live-only downstream client: it receives every
// event the relay fans out after this call, filtered to allow (nil = all
// kinds). Subscribing to a shut-down relay returns an already-closed
// client.
func (r *Relay) Subscribe(buffer int, allow map[Kind]bool) *RelayClient {
	c, _, _ := r.join(&joinReq{buffer: buffer, allow: allow})
	return c
}

// SubscribeFrom registers a downstream client resuming after a previously
// seen sequence number: the backlog covers (after, relayed-so-far] from the
// replay ring (Bus.Replay), the queue delivers everything later exactly
// once, and complete is false when the ring has already evicted position
// after+1.
func (r *Relay) SubscribeFrom(after uint64, buffer int, allow map[Kind]bool) (*RelayClient, []Event, bool) {
	return r.join(&joinReq{after: after, resume: true, buffer: buffer, allow: allow})
}

func (r *Relay) join(req *joinReq) (*RelayClient, []Event, bool) {
	req.reply = make(chan joinResp, 1)
	select {
	case r.ctl <- relayCtl{join: req}:
		resp := <-req.reply
		return resp.client, resp.backlog, resp.complete
	case <-r.done:
		c := &RelayClient{relay: r, ch: make(chan Event)}
		close(c.ch)
		return c, nil, req.after >= r.bus.Seq()
	}
}

// RelayInfo is a point-in-time view of the relay for /v1/stats.
type RelayInfo struct {
	Clients         int    `json:"clients"`
	UpstreamID      uint64 `json:"upstream_id"`
	UpstreamDepth   int    `json:"upstream_depth"`
	UpstreamCap     int    `json:"upstream_cap"`
	UpstreamDropped int64  `json:"upstream_dropped"`
	MaxQueued       int    `json:"max_queued"`
	Deliveries      int64  `json:"deliveries"`
	Dropped         int64  `json:"dropped"`
	Shed            int64  `json:"shed"`
	Joins           int64  `json:"joins"`
	Leaves          int64  `json:"leaves"`
}

// Info snapshots the relay's counters and its single upstream queue — the
// bounded-depth proof that N clients cost the bus one subscriber.
func (r *Relay) Info() RelayInfo {
	r.statsMu.Lock()
	clients := len(r.byID)
	r.statsMu.Unlock()
	s := r.m.Snapshot()
	return RelayInfo{
		Clients:         clients,
		UpstreamID:      r.up.ID(),
		UpstreamDepth:   r.up.Depth(),
		UpstreamCap:     cap(r.up.ch),
		UpstreamDropped: r.up.Dropped(),
		MaxQueued:       r.maxQueued,
		Deliveries:      s.Deliveries,
		Dropped:         s.Dropped,
		Shed:            s.Shed,
		Joins:           s.Joins,
		Leaves:          s.Leaves,
	}
}

// ClientDepths snapshots every downstream client's queue occupancy,
// ascending by client id — the relay-tier counterpart of
// Bus.SubscriberDepths.
func (r *Relay) ClientDepths() []SubscriberDepth {
	r.statsMu.Lock()
	out := make([]SubscriberDepth, 0, len(r.byID))
	for _, c := range r.byID {
		out = append(out, SubscriberDepth{
			ID:      c.id,
			Depth:   len(c.ch),
			Cap:     cap(c.ch),
			Dropped: c.dropped.Load(),
		})
	}
	r.statsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
