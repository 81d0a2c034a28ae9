// Package events is the outage event bus of the live service layer: it
// bridges the detection engine's lifecycle hooks (outage opened, updated,
// resolved; incident classified; bin closed) onto bounded per-subscriber
// queues that many concurrent consumers — SSE streams, loggers, future
// persistence sinks — drain independently. Publishing never blocks: a
// subscriber whose queue is full loses the event and the loss is counted,
// so one stuck client can never stall a bin close (the publisher is the
// ingestion goroutine itself).
package events

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/core"
	"kepler/internal/metrics"
)

// Kind discriminates bus events.
type Kind string

// Event kinds, also used as SSE event names by internal/server.
const (
	KindOutageOpened   Kind = "outage_opened"
	KindOutageUpdated  Kind = "outage_updated"
	KindOutageResolved Kind = "outage_resolved"
	KindIncident       Kind = "incident"
	KindBinClosed      Kind = "bin_closed"
	KindProbeRequested Kind = "probe_requested"
	KindProbeConfirmed Kind = "probe_confirmed"
	KindProbeExpired   Kind = "probe_expired"
	KindTrace          Kind = "trace"
	KindFeedDegraded   Kind = "feed_degraded"
	KindFeedRecovered  Kind = "feed_recovered"
)

// Kinds returns every event kind, in declaration order.
func Kinds() []Kind {
	return []Kind{
		KindOutageOpened, KindOutageUpdated, KindOutageResolved, KindIncident,
		KindBinClosed, KindProbeRequested, KindProbeConfirmed, KindProbeExpired,
		KindTrace, KindFeedDegraded, KindFeedRecovered,
	}
}

// Event is one bus message. Exactly one of the payload pointers is non-nil,
// matched to Kind; BinClosed events carry only Time. Seq is a bus-global,
// gapless publication sequence number (SSE ids derive from it).
type Event struct {
	Seq      uint64
	Time     time.Time
	Kind     Kind
	Status   *core.OutageStatus        // opened / updated
	Outage   *core.Outage              // resolved
	Incident *core.Incident            // incident
	Pending  *core.PendingConfirmation // probe_requested
	Probe    *core.ProbeOutcome        // probe_confirmed / probe_expired
	Trace    *core.OutageTrace         // trace (Config.Tracing only)
	Feed     *bgpstream.FeedTransition // feed_degraded / feed_recovered

	// PublishedAt is the wall-clock instant Publish stamped this event —
	// the origin of the SSE delivery-lag histogram. It is process-local
	// observability only: excluded from JSON so the durable WAL and SSE
	// payloads stay deterministic. Ring-replayed backlog events carry a
	// stale stamp (and store-tail events a zero one), so consumers must
	// measure lag on live deliveries only.
	PublishedAt time.Time `json:"-"`
}

// Subscriber is one bounded-queue consumer registration.
type Subscriber struct {
	bus     *Bus
	id      uint64
	ch      chan Event
	dropped atomic.Int64
}

// ID returns the subscriber's bus-unique registration id, stable for the
// subscription's lifetime — the label of its queue-depth gauge.
func (s *Subscriber) ID() uint64 { return s.id }

// Depth returns the subscriber's current queue occupancy.
func (s *Subscriber) Depth() int { return len(s.ch) }

// Events returns the subscriber's delivery channel. It is closed when the
// bus closes or the subscriber cancels.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Dropped returns how many events this subscriber lost to a full queue.
func (s *Subscriber) Dropped() int64 { return s.dropped.Load() }

// Close cancels the subscription and closes the delivery channel. Safe to
// call multiple times and concurrently with Publish and Bus.Close:
// idempotence comes from bus-map membership, checked under the bus lock,
// so no subscriber-side state is ever held while waiting for it.
func (s *Subscriber) Close() {
	s.bus.unsubscribe(s)
}

// Bus fans events out to subscribers. The zero value is not usable; use New.
type Bus struct {
	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	seq    uint64
	subSeq uint64
	closed bool

	// sink, if set, observes every published event synchronously on the
	// publisher's goroutine, before fan-out — the durable write path.
	sink func(Event)
	// ring retains the most recent published events for Last-Event-ID
	// resume; nil when retention is disabled.
	ring *Ring

	published atomic.Int64
	dropped   atomic.Int64
	svc       *metrics.ServiceStats // optional mirror
}

// Option configures a Bus at construction.
type Option func(*Bus)

// WithStartSeq seeds the publication sequence so the first published event
// carries seq+1. A daemon recovering a persisted store passes the store's
// last durable sequence here, making SSE event ids continuous across
// restarts.
func WithStartSeq(seq uint64) Option {
	return func(b *Bus) { b.seq = seq }
}

// WithSink installs a synchronous observer invoked for every published
// event, after sequence assignment and before any subscriber delivery. It
// runs on the publisher's goroutine (the ingestion goroutine), so a store
// sink sees a gapless, ordered stream and needs no locking of its own — at
// the cost that a slow sink slows bin closes.
func WithSink(fn func(Event)) Option {
	return func(b *Bus) { b.sink = fn }
}

// WithRing retains the last n published events for replay to reconnecting
// clients (Replay). n <= 0 disables retention.
func WithRing(n int) Option {
	return func(b *Bus) { b.ring = NewRing(n) }
}

// New builds a bus. svc, if non-nil, receives publish/drop counter updates
// alongside the bus's own counters (the server exports it via /v1/stats).
func New(svc *metrics.ServiceStats, opts ...Option) *Bus {
	b := &Bus{subs: make(map[*Subscriber]struct{}), svc: svc}
	for _, o := range opts {
		o(b)
	}
	return b
}

// SeedRing pre-populates the replay ring with already-sequenced events —
// the tail a recovered store hands back — so clients that disconnected
// before a restart can still resume across it. Events must be in ascending
// sequence order and precede anything published afterwards. Without
// WithRing this is a no-op.
func (b *Bus) SeedRing(evs []Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ev := range evs {
		b.ring.Push(ev)
	}
}

// Subscribe registers a consumer with the given queue capacity (minimum 1).
// Events published while the queue is full are dropped for this subscriber
// only, and counted. Subscribing to a closed bus returns an
// already-closed subscription.
func (b *Bus) Subscribe(buffer int) *Subscriber {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscriber{bus: b, ch: make(chan Event, buffer)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		// Never registered: Close degrades to a no-op membership miss.
		close(s.ch)
		return s
	}
	b.subSeq++
	s.id = b.subSeq
	b.subs[s] = struct{}{}
	return s
}

// Replay returns the retained events with Seq > after without registering
// a subscription — the relay's resume path, where registration happens on
// the relay goroutine. complete is false when the ring no longer holds
// position after+1 (evicted, or predating the store horizon): evs then
// starts at the oldest retained event. after=0 replays the whole ring.
func (b *Bus) Replay(after uint64) (evs []Event, complete bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	complete = true
	b.ring.Each(func(ev Event) {
		if ev.Seq <= after {
			return
		}
		if len(evs) == 0 && ev.Seq != after+1 {
			complete = false // ring already evicted after+1 .. ev.Seq-1
		}
		evs = append(evs, ev)
	})
	if len(evs) == 0 && after < b.seq {
		complete = false // everything since `after` was evicted (or never retained)
	}
	return evs, complete
}

func (b *Bus) unsubscribe(s *Subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		close(s.ch)
	}
}

// Publish assigns the event its sequence number and offers it to every
// subscriber without blocking. It is called from the ingestion goroutine's
// engine hooks, so the only per-subscriber cost is a channel send or a
// drop-counter increment.
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.seq++
	ev.Seq = b.seq
	// Wall-clock stamp for the SSE delivery-lag histogram. Observability
	// only: never serialized, never read by detection.
	ev.PublishedAt = time.Now()
	if b.sink != nil {
		b.sink(ev)
	}
	b.ring.Push(ev)
	b.published.Add(1)
	if b.svc != nil {
		b.svc.EventsPublished.Add(1)
	}
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
			if b.svc != nil {
				b.svc.EventsDropped.Add(1)
			}
		}
	}
}

// Close shuts the bus down: all subscriber channels are closed and further
// Publish and Subscribe calls become no-ops. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.ch)
	}
}

// Seq returns the sequence number of the most recently published event
// (or the WithStartSeq seed if nothing has been published yet).
func (b *Bus) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// SubscriberDepth is a point-in-time view of one subscriber's queue.
type SubscriberDepth struct {
	ID      uint64 `json:"id"`
	Depth   int    `json:"depth"`
	Cap     int    `json:"cap"`
	Dropped int64  `json:"dropped"`
}

// SubscriberDepths snapshots every live subscriber's queue occupancy,
// capacity, and drop count, ascending by subscriber id — the backing data
// for the per-subscriber queue-depth gauges in /v1/stats and /metrics.
func (b *Bus) SubscriberDepths() []SubscriberDepth {
	b.mu.Lock()
	out := make([]SubscriberDepth, 0, len(b.subs))
	for s := range b.subs {
		out = append(out, SubscriberDepth{
			ID:      s.id,
			Depth:   len(s.ch),
			Cap:     cap(s.ch),
			Dropped: s.dropped.Load(),
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats is a point-in-time view of the bus. Its tags declare the /v1/stats
// keys and the /metrics series, like metrics.StoreSnapshot; the bus totals
// reach /metrics through metrics.ServiceSnapshot instead.
type Stats struct {
	Published   int64 `json:"published" metric:"-"`
	Dropped     int64 `json:"dropped" metric:"-"`
	Subscribers int   `json:"subscribers" metric:"kepler_bus_subscribers,gauge" help:"Registered event-bus subscribers."`
}

// Stats snapshots publication and drop counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	n := len(b.subs)
	b.mu.Unlock()
	return Stats{
		Published:   b.published.Load(),
		Dropped:     b.dropped.Load(),
		Subscribers: n,
	}
}

// EngineHooks bridges a detection pipeline onto the bus: every lifecycle
// callback becomes a published event. Callers that need additional
// callbacks (snapshot refresh, outage accumulation) chain their own
// functions over the returned struct before Engine.SetHooks.
func EngineHooks(b *Bus) core.Hooks {
	return core.Hooks{
		OutageOpened: func(s core.OutageStatus) {
			b.Publish(Event{Time: s.LastSignal, Kind: KindOutageOpened, Status: &s})
		},
		OutageUpdated: func(s core.OutageStatus) {
			b.Publish(Event{Time: s.LastSignal, Kind: KindOutageUpdated, Status: &s})
		},
		OutageResolved: func(o core.Outage) {
			b.Publish(Event{Time: o.End, Kind: KindOutageResolved, Outage: &o})
		},
		IncidentClassified: func(inc core.Incident) {
			b.Publish(Event{Time: inc.Time, Kind: KindIncident, Incident: &inc})
		},
		BinClosed: func(end time.Time) {
			b.Publish(Event{Time: end, Kind: KindBinClosed})
		},
		ProbeRequested: func(p core.PendingConfirmation) {
			b.Publish(Event{Time: p.At, Kind: KindProbeRequested, Pending: &p})
		},
		ProbeConfirmed: func(o core.ProbeOutcome) {
			b.Publish(Event{Time: o.Pending.At, Kind: KindProbeConfirmed, Probe: &o})
		},
		ProbeExpired: func(o core.ProbeOutcome) {
			b.Publish(Event{Time: o.Pending.At, Kind: KindProbeExpired, Probe: &o})
		},
		TraceRecorded: func(tr core.OutageTrace) {
			b.Publish(Event{Time: tr.End, Kind: KindTrace, Trace: &tr})
		},
		FeedDegraded: func(tr bgpstream.FeedTransition) {
			b.Publish(Event{Time: tr.At, Kind: KindFeedDegraded, Feed: &tr})
		},
		FeedRecovered: func(tr bgpstream.FeedTransition) {
			b.Publish(Event{Time: tr.At, Kind: KindFeedRecovered, Feed: &tr})
		},
	}
}
