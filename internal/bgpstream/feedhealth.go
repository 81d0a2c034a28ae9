package bgpstream

import (
	"sort"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/mrt"
)

// SessionKey identifies one collector BGP session.
type SessionKey struct {
	Collector string
	PeerAS    bgp.ASN
}

// FeedWatchdog tracks per-session and per-collector feed liveness on
// stream time: every record refreshes its session's last-seen stamp, and a
// feed whose silence (bin end minus last-seen) reaches the configured
// threshold is declared degraded until a record arrives again. It is the
// coverage-side complement of Fanout's peer-down broadcast: the fan-out
// believes state messages (a session that *says* it is down), the watchdog
// catches feeds that silently stop without one — the collector blind spot
// that erodes the stable baseline with no visible symptom.
//
// The watchdog never reads a clock. All decisions are pure functions of
// record timestamps and the bin ends the detection pipeline hands it, so
// a replayed stream produces the identical transition sequence at any
// replay speed, with any shard count, and across restarts (Checkpoint /
// Restore). That keeps feed_degraded / feed_recovered events inside the
// same determinism contract as every other lifecycle event — in
// particular, the replay gate can count them.
//
// All methods are single-goroutine: the ingestion goroutine observes
// records and evaluates transitions at bin barriers. Concurrent readers
// must go through a snapshot published at a barrier.
type FeedWatchdog struct {
	silence time.Duration

	sessions   map[SessionKey]time.Time
	collectors map[string]time.Time
	// degraded holds the feeds currently declared degraded; a session or
	// collector key is present only while degraded.
	degradedSessions   map[SessionKey]bool
	degradedCollectors map[string]bool
}

// NewFeedWatchdog builds a watchdog declaring any feed silent for at
// least the given duration degraded. silence must be positive.
func NewFeedWatchdog(silence time.Duration) *FeedWatchdog {
	return &FeedWatchdog{
		silence:            silence,
		sessions:           make(map[SessionKey]time.Time),
		collectors:         make(map[string]time.Time),
		degradedSessions:   make(map[SessionKey]bool),
		degradedCollectors: make(map[string]bool),
	}
}

// Observe refreshes the record's session and collector last-seen stamps.
// Every record kind counts as liveness — a withdrawal-only trickle still
// proves the feed is alive. Records must arrive in non-decreasing time
// order, as the merged stream guarantees.
func (w *FeedWatchdog) Observe(r *mrt.Record) {
	w.sessions[SessionKey{Collector: r.Collector, PeerAS: r.PeerAS}] = r.Time
	w.collectors[r.Collector] = r.Time
}

// FeedScope discriminates watchdog transition subjects.
type FeedScope string

// Transition scopes.
const (
	ScopeCollector FeedScope = "collector"
	ScopePeer      FeedScope = "peer"
)

// FeedTransition is one degraded/recovered edge, evaluated at a bin end.
type FeedTransition struct {
	Scope     FeedScope `json:"scope"`
	Collector string    `json:"collector"`
	// PeerAS is set for peer-scope transitions only.
	PeerAS bgp.ASN `json:"peer_as,omitempty"`
	// Degraded is true for a degraded edge, false for a recovery.
	Degraded bool `json:"degraded"`
	// LastSeen is the stream time of the feed's most recent record.
	LastSeen time.Time `json:"last_seen"`
	// At is the bin end the transition was evaluated at.
	At time.Time `json:"at"`
}

// Due reports, without mutating any state, whether Evaluate(end) would
// emit at least one transition. The engine's idle-bin fast path consults
// it so a silence threshold crossing still closes an otherwise-empty bin.
func (w *FeedWatchdog) Due(end time.Time) bool {
	for key, last := range w.sessions {
		if w.degradedSessions[key] != (end.Sub(last) >= w.silence) {
			return true
		}
	}
	for c, last := range w.collectors {
		if w.degradedCollectors[c] != (end.Sub(last) >= w.silence) {
			return true
		}
	}
	return false
}

// Evaluate computes the degraded/recovered transitions as of a bin end
// and commits them: a live feed whose silence reached the threshold
// degrades, a degraded feed seen again recovers. Transitions are returned
// sorted by (scope, collector, peer) — collector scope first — so the
// emission order is a pure function of the observed stream.
func (w *FeedWatchdog) Evaluate(end time.Time) []FeedTransition {
	var out []FeedTransition
	for c, last := range w.collectors {
		silent := end.Sub(last) >= w.silence
		if w.degradedCollectors[c] == silent {
			continue
		}
		if silent {
			w.degradedCollectors[c] = true
		} else {
			delete(w.degradedCollectors, c)
		}
		out = append(out, FeedTransition{
			Scope: ScopeCollector, Collector: c,
			Degraded: silent, LastSeen: last, At: end,
		})
	}
	for key, last := range w.sessions {
		silent := end.Sub(last) >= w.silence
		if w.degradedSessions[key] == silent {
			continue
		}
		if silent {
			w.degradedSessions[key] = true
		} else {
			delete(w.degradedSessions, key)
		}
		out = append(out, FeedTransition{
			Scope: ScopePeer, Collector: key.Collector, PeerAS: key.PeerAS,
			Degraded: silent, LastSeen: last, At: end,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Scope != b.Scope {
			return a.Scope == ScopeCollector
		}
		if a.Collector != b.Collector {
			return a.Collector < b.Collector
		}
		return a.PeerAS < b.PeerAS
	})
	return out
}

// FeedStatus is the point-in-time health of one feed.
type FeedStatus struct {
	Collector string `json:"collector"`
	// PeerAS is zero for collector-scope rows.
	PeerAS   bgp.ASN   `json:"peer_as,omitempty"`
	LastSeen time.Time `json:"last_seen"`
	// SilentFor is the feed's silence as of the snapshot instant.
	SilentFor time.Duration `json:"silent_for_ns"`
	Degraded  bool          `json:"degraded"`
}

// FeedSnapshot is the full health picture at one bin end: every known
// feed with its silence, plus coverage totals. Collectors and Sessions
// are sorted by (collector, peer). The tags of the totals declare their
// /v1/stats keys (json) and /metrics series (metric: "name,type", help);
// internal/server renders the untagged fields itself.
type FeedSnapshot struct {
	At      time.Time     `json:"-" metric:"-"`
	Silence time.Duration `json:"-" metric:"-"`

	CollectorsKnown int `json:"collectors_known" metric:"kepler_feed_collectors_known,gauge" help:"Collectors ever observed by the feed watchdog."`
	CollectorsLive  int `json:"collectors_live" metric:"kepler_feed_collectors_live,gauge" help:"Collectors within the silence threshold."`
	SessionsKnown   int `json:"sessions_known" metric:"kepler_feed_sessions_known,gauge" help:"Peer sessions ever observed by the feed watchdog."`
	SessionsLive    int `json:"sessions_live" metric:"kepler_feed_sessions_live,gauge" help:"Peer sessions within the silence threshold."`

	Collectors []FeedStatus `json:"-" metric:"-"`
	Sessions   []FeedStatus `json:"-" metric:"-"`
}

// Coverage returns the live-session fraction, 1 when no session is known
// yet (an empty watchdog has lost nothing).
func (s *FeedSnapshot) Coverage() float64 {
	if s.SessionsKnown == 0 {
		return 1
	}
	return float64(s.SessionsLive) / float64(s.SessionsKnown)
}

// Snapshot captures every feed's status as of a bin end. Degraded flags
// reflect the committed Evaluate state, not an on-the-fly re-evaluation,
// so a snapshot taken right after Evaluate(end) is self-consistent.
func (w *FeedWatchdog) Snapshot(asOf time.Time) FeedSnapshot {
	snap := FeedSnapshot{At: asOf, Silence: w.silence}
	for c, last := range w.collectors {
		st := FeedStatus{Collector: c, LastSeen: last, SilentFor: asOf.Sub(last), Degraded: w.degradedCollectors[c]}
		snap.Collectors = append(snap.Collectors, st)
		snap.CollectorsKnown++
		if !st.Degraded {
			snap.CollectorsLive++
		}
	}
	for key, last := range w.sessions {
		st := FeedStatus{Collector: key.Collector, PeerAS: key.PeerAS, LastSeen: last, SilentFor: asOf.Sub(last), Degraded: w.degradedSessions[key]}
		snap.Sessions = append(snap.Sessions, st)
		snap.SessionsKnown++
		if !st.Degraded {
			snap.SessionsLive++
		}
	}
	less := func(a, b *FeedStatus) bool {
		if a.Collector != b.Collector {
			return a.Collector < b.Collector
		}
		return a.PeerAS < b.PeerAS
	}
	sort.Slice(snap.Collectors, func(i, j int) bool { return less(&snap.Collectors[i], &snap.Collectors[j]) })
	sort.Slice(snap.Sessions, func(i, j int) bool { return less(&snap.Sessions[i], &snap.Sessions[j]) })
	return snap
}

// FeedEntry is the serialized state of one watched feed.
type FeedEntry struct {
	Collector string `json:"collector"`
	// PeerAS is zero for collector-scope entries.
	PeerAS   bgp.ASN   `json:"peer_as,omitempty"`
	LastSeen time.Time `json:"last_seen"`
	Degraded bool      `json:"degraded,omitempty"`
}

// FeedCheckpoint is the watchdog's full serializable state, sorted by
// (collector, peer) so the encoding is deterministic and shard-count
// independent (the watchdog is global, fed before fan-out).
type FeedCheckpoint struct {
	Collectors []FeedEntry `json:"collectors,omitempty"`
	Sessions   []FeedEntry `json:"sessions,omitempty"`
}

// Checkpoint snapshots the watchdog deterministically.
func (w *FeedWatchdog) Checkpoint() FeedCheckpoint {
	var c FeedCheckpoint
	for coll, last := range w.collectors {
		c.Collectors = append(c.Collectors, FeedEntry{Collector: coll, LastSeen: last, Degraded: w.degradedCollectors[coll]})
	}
	for key, last := range w.sessions {
		c.Sessions = append(c.Sessions, FeedEntry{Collector: key.Collector, PeerAS: key.PeerAS, LastSeen: last, Degraded: w.degradedSessions[key]})
	}
	less := func(a, b *FeedEntry) bool {
		if a.Collector != b.Collector {
			return a.Collector < b.Collector
		}
		return a.PeerAS < b.PeerAS
	}
	sort.Slice(c.Collectors, func(i, j int) bool { return less(&c.Collectors[i], &c.Collectors[j]) })
	sort.Slice(c.Sessions, func(i, j int) bool { return less(&c.Sessions[i], &c.Sessions[j]) })
	return c
}

// Restore replaces the watchdog's state with a checkpoint. Must be called
// before any Observe.
func (w *FeedWatchdog) Restore(c FeedCheckpoint) {
	w.collectors = make(map[string]time.Time, len(c.Collectors))
	w.degradedCollectors = make(map[string]bool)
	for _, e := range c.Collectors {
		w.collectors[e.Collector] = e.LastSeen
		if e.Degraded {
			w.degradedCollectors[e.Collector] = true
		}
	}
	w.sessions = make(map[SessionKey]time.Time, len(c.Sessions))
	w.degradedSessions = make(map[SessionKey]bool)
	for _, e := range c.Sessions {
		key := SessionKey{Collector: e.Collector, PeerAS: e.PeerAS}
		w.sessions[key] = e.LastSeen
		if e.Degraded {
			w.degradedSessions[key] = true
		}
	}
}
