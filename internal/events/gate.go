package events

import "kepler/internal/core"

// guard wraps one callback so it runs only when pass reports true. pass is
// consulted on every call, even when f is nil: the replay gate counts
// callbacks, not handlers.
func guard[T any](pass func() bool, f func(T)) func(T) {
	return func(v T) {
		if pass() && f != nil {
			f(v)
		}
	}
}

// guardHooks puts every callback of h behind pass — the one enumeration of
// the hook fields that the middleware below shares.
func guardHooks(h core.Hooks, pass func() bool) core.Hooks {
	return core.Hooks{
		OutageOpened:       guard(pass, h.OutageOpened),
		OutageUpdated:      guard(pass, h.OutageUpdated),
		OutageResolved:     guard(pass, h.OutageResolved),
		IncidentClassified: guard(pass, h.IncidentClassified),
		BinClosed:          guard(pass, h.BinClosed),
		ProbeRequested:     guard(pass, h.ProbeRequested),
		ProbeConfirmed:     guard(pass, h.ProbeConfirmed),
		ProbeExpired:       guard(pass, h.ProbeExpired),
		TraceRecorded:      guard(pass, h.TraceRecorded),
		FeedDegraded:       guard(pass, h.FeedDegraded),
		FeedRecovered:      guard(pass, h.FeedRecovered),
	}
}

// MuteHooks wraps a hook set so every callback is dropped while muted
// reports true. A store-backed daemon arms this at the moment its source
// aborts (live.OnAbort): the engine flush that follows a shutdown emits
// resolution events that are artifacts of stopping, not real detections —
// publishing them would burn bus sequence numbers that the restarted
// process reassigns to different (real) events, breaking Last-Event-ID
// exactly-once across the restart for any client still connected at the
// kill. Muting keeps the published stream identical to the persisted one,
// so the sequence numbering is continuous across process lifetimes.
func MuteHooks(h core.Hooks, muted func() bool) core.Hooks {
	return guardHooks(h, func() bool { return !muted() })
}

// GateHooks wraps a hook set so that the first skip lifecycle callbacks are
// swallowed and everything after passes through unchanged. It is the replay
// gate of the durable-store recovery path: the detection pipeline is fully
// deterministic for a given record stream, so a daemon that recovered a
// store whose last persisted sequence is S re-ingests its source from the
// beginning — rebuilding baselines and open-outage state exactly — while
// the gate drops the S callbacks that were already published and persisted
// before the restart. Publication (and therefore sequence assignment and
// persistence) resumes at exactly S+1, which is what keeps SSE ids gapless
// across restarts and the store free of duplicates.
//
// The count is exact because EngineHooks publishes exactly one event per
// callback, in callback order, on a single goroutine.
func GateHooks(h core.Hooks, skip uint64) core.Hooks {
	if skip == 0 {
		return h
	}
	var seen uint64
	return guardHooks(h, func() bool {
		if seen < skip {
			seen++
			return false
		}
		return true
	})
}
