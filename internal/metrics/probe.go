package metrics

import (
	"fmt"
	"sync/atomic"
)

// ProbeStats collects the active-measurement subsystem's counters
// (internal/probe plus the core pending-confirmation layer): campaign and
// target volume, how much work the scheduler's dedup/cache/budget layers
// absorbed, and how parked confirmations ultimately resolved. All fields
// are atomics — the scheduler's workers, the ingestion goroutine's hooks
// and /v1/stats readers update and read them concurrently.
type ProbeStats struct {
	Campaigns atomic.Int64 // probe campaigns submitted
	Targets   atomic.Int64 // candidate targets across campaigns
	Executed  atomic.Int64 // probes actually run against the backend
	CacheHits atomic.Int64 // targets answered from the verdict cache
	Deduped   atomic.Int64 // targets folded into an in-flight probe
	Denied    atomic.Int64 // probes denied by the measurement budget
	Collected atomic.Int64 // completed verdicts delivered to the engine

	Promoted  atomic.Int64 // pendings promoted to located outages
	Refuted   atomic.Int64 // confirmations contradicted by the data plane (suppressed false positives)
	Unlocated atomic.Int64 // disambiguation verdicts that failed to pin an epicenter
	Expired   atomic.Int64 // pendings that outlived their TTL
	Pending   atomic.Int64 // currently parked confirmations (gauge)
}

// ProbeSnapshot is a point-in-time copy of ProbeStats, tagged like
// StoreSnapshot.
type ProbeSnapshot struct {
	Campaigns int64 `json:"campaigns" metric:"kepler_probe_campaigns_total,counter" help:"Probe campaigns submitted."`
	Targets   int64 `json:"targets" metric:"kepler_probe_targets_total,counter" help:"Candidate targets across campaigns."`
	Executed  int64 `json:"executed" metric:"kepler_probe_executed_total,counter" help:"Probes run against the measurement backend."`
	CacheHits int64 `json:"cache_hits" metric:"kepler_probe_cache_hits_total,counter" help:"Targets answered from the verdict cache."`
	Deduped   int64 `json:"deduped" metric:"kepler_probe_deduped_total,counter" help:"Targets folded into an in-flight probe."`
	Denied    int64 `json:"denied" metric:"kepler_probe_denied_total,counter" help:"Probes denied by the measurement budget."`
	Collected int64 `json:"collected" metric:"kepler_probe_collected_total,counter" help:"Completed verdicts delivered to the engine."`
	Promoted  int64 `json:"promoted" metric:"kepler_probe_promoted_total,counter" help:"Pending confirmations promoted to located outages."`
	Refuted   int64 `json:"refuted" metric:"kepler_probe_refuted_total,counter" help:"Confirmations contradicted by the data plane (suppressed false positives)."`
	Unlocated int64 `json:"unlocated" metric:"kepler_probe_unlocated_total,counter" help:"Disambiguation verdicts that failed to pin an epicenter."`
	Expired   int64 `json:"expired" metric:"kepler_probe_expired_total,counter" help:"Pending confirmations that outlived their TTL."`
	Pending   int64 `json:"pending" metric:"kepler_probe_pending,gauge" help:"Currently parked confirmations."`
}

// Snapshot copies the current counter values.
func (s *ProbeStats) Snapshot() ProbeSnapshot {
	return ProbeSnapshot{
		Campaigns: s.Campaigns.Load(),
		Targets:   s.Targets.Load(),
		Executed:  s.Executed.Load(),
		CacheHits: s.CacheHits.Load(),
		Deduped:   s.Deduped.Load(),
		Denied:    s.Denied.Load(),
		Collected: s.Collected.Load(),
		Promoted:  s.Promoted.Load(),
		Refuted:   s.Refuted.Load(),
		Unlocated: s.Unlocated.Load(),
		Expired:   s.Expired.Load(),
		Pending:   s.Pending.Load(),
	}
}

// String renders the snapshot as a single log-friendly line.
func (s ProbeSnapshot) String() string {
	return fmt.Sprintf("campaigns=%d targets=%d executed=%d cached=%d deduped=%d denied=%d promoted=%d refuted=%d unlocated=%d expired=%d pending=%d",
		s.Campaigns, s.Targets, s.Executed, s.CacheHits, s.Deduped, s.Denied,
		s.Promoted, s.Refuted, s.Unlocated, s.Expired, s.Pending)
}
