// Package core implements Kepler, the peering-infrastructure outage
// detection system of the paper (Section 4). The detector consumes a
// time-ordered stream of BGP records, maps each route's location-encoding
// communities to the physical PoPs it traverses (input module), maintains a
// stable-path baseline and bins PoP-level divergence into 60-second
// intervals with a per-AS failure threshold (monitoring module), classifies
// concurrent signals into link-, AS-, operator- and PoP-level incidents and
// disambiguates the outage epicenter against the colocation map (signal
// investigation), optionally confirms inferences against the data plane,
// and tracks outage durations with oscillation merging.
package core

import (
	"net/netip"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
)

// Config holds Kepler's tuning parameters. DefaultConfig returns the
// paper's settings (Section 5.1).
type Config struct {
	// Tfail is the per-AS fraction of diverted stable paths that raises an
	// outage signal. The paper selects 10% as "relatively conservative"
	// while still catching medium-scale partial outages.
	Tfail float64
	// BinInterval groups updates for correlation: 60 s, twice the default
	// MRAI.
	BinInterval time.Duration
	// StableWindow is how long a path must keep tagging a PoP before it
	// joins the baseline (ds = 2 days).
	StableWindow time.Duration
	// ColocationMargin is the fraction of colocated-far-end paths that
	// must be affected to pin the epicenter (95%, allowing 5% colocation
	// map error).
	ColocationMargin float64
	// RestoreFraction of diverted paths returning to the baseline PoP
	// closes the outage (50%).
	RestoreFraction float64
	// OscillationGap merges two outages of one PoP separated by less than
	// this into one incident (12 h).
	OscillationGap time.Duration
	// MinInvestigationASes is the number of distinct affected ASes above
	// which a signal stops being link-level and triggers investigation
	// ("more than three different ASes").
	MinInvestigationASes int
	// MinDisjointEnds is the minimum number of non-sibling near-end and
	// far-end ASes for a PoP-level classification (3 each).
	MinDisjointEnds int
	// ReportUnresolved opens outages at the signal PoP even when
	// disambiguation cannot converge and no data plane is available to
	// probe candidates. Off by default: the paper's pipeline never
	// reports a location it could not corroborate, but operators running
	// without measurement infrastructure may prefer recall over precision.
	ReportUnresolved bool
	// ProbeTTL bounds how long a signal group parked behind an asynchronous
	// probe campaign (SetProber) waits for its verdict before expiring
	// unreported. Zero selects 10 minutes. Irrelevant to the synchronous
	// DataPlane path.
	ProbeTTL time.Duration
	// DisablePerASGrouping reverts to thresholding the aggregate path
	// fraction per PoP instead of per near-end AS. The paper introduces
	// per-AS grouping because aggregate fractions are "biased by ASes that
	// account for a disproportionately large number of paths"
	// (Section 4.2); this knob exists for the ablation benchmark that
	// demonstrates the bias.
	DisablePerASGrouping bool
	// FeedSilence, when positive, arms the feed-health watchdog: a
	// collector or peer session whose feed has been silent (no records of
	// any kind) for at least this much stream time at a bin close is
	// declared degraded, firing Hooks.FeedDegraded, and recovers on its
	// next record (Hooks.FeedRecovered). Liveness is judged on record
	// timestamps only — never the wall clock — so the transition sequence
	// is part of the deterministic output: byte-for-byte identical across
	// shard counts, replay speeds and restarts. Zero disables the
	// watchdog. Feed events never influence detection results.
	FeedSilence time.Duration
	// Tracing records a provenance trace per resolved outage — the evidence
	// chain (diverted paths, baseline counts, disambiguation eliminations,
	// collateral folds, probe verdicts) behind the detection — delivered to
	// Hooks.TraceRecorded right after OutageResolved. Traces are derived
	// output: detection results are byte-for-byte identical with tracing on
	// or off, and recording costs nothing when disabled. Off by default.
	Tracing bool
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Tfail:                0.10,
		BinInterval:          60 * time.Second,
		StableWindow:         48 * time.Hour,
		ColocationMargin:     0.95,
		RestoreFraction:      0.50,
		OscillationGap:       12 * time.Hour,
		MinInvestigationASes: 3,
		MinDisjointEnds:      3,
		ProbeTTL:             defaultProbeTTL,
	}
}

// IncidentKind is the granularity of a classified routing incident
// (Section 4.3).
type IncidentKind uint8

// Incident kinds.
const (
	IncidentLink IncidentKind = iota
	IncidentAS
	IncidentOperator
	IncidentPoP
)

// String names the kind.
func (k IncidentKind) String() string {
	switch k {
	case IncidentLink:
		return "link"
	case IncidentAS:
		return "as"
	case IncidentOperator:
		return "operator"
	case IncidentPoP:
		return "pop"
	default:
		return "unknown"
	}
}

// Incident is one classified outage signal group.
type Incident struct {
	Time time.Time
	Kind IncidentKind
	// PoP is the signalled PoP (for IncidentPoP: the disambiguated
	// epicenter).
	PoP colo.PoP
	// SignalPoP is the PoP the communities originally indicated, before
	// disambiguation and resolution refinement.
	SignalPoP colo.PoP
	// CommonAS is set for AS-level incidents.
	CommonAS bgp.ASN
	// AffectedASes are the distinct near+far ASes involved.
	AffectedASes []bgp.ASN
	// Links is the number of affected AS links.
	Links int
	// Paths is the number of diverted stable paths.
	Paths int
}

// Outage is one detected PoP-level outage with its tracked duration.
type Outage struct {
	PoP       colo.PoP
	SignalPoP colo.PoP
	Start     time.Time
	End       time.Time
	// Confirmed is set when data-plane measurements corroborated the
	// control-plane inference.
	Confirmed bool
	// DataPlaneChecked reports whether a data plane was available at all.
	DataPlaneChecked bool
	// AffectedASes as observed across the outage's signals.
	AffectedASes []bgp.ASN
	// DivertedPaths is the peak number of stable paths diverted.
	DivertedPaths int
	// Merged counts oscillation segments folded into this incident.
	Merged int
}

// Duration returns the outage duration (the sum of oscillation segments is
// approximated by End-Start once merged).
func (o *Outage) Duration() time.Duration { return o.End.Sub(o.Start) }

// DataPlane abstracts the targeted-measurement backend (Section 4.4):
// given a suspected PoP outage, it reports whether the data plane confirms
// that baseline paths stopped crossing the PoP.
type DataPlane interface {
	// Confirm returns (confirmed, hasData): hasData=false means no
	// measurements were possible and the control-plane inference stands
	// unvalidated.
	Confirm(pop colo.PoP, at time.Time) (confirmed, hasData bool)
}

// PathKey identifies one monitored path: a vantage AS's route to a prefix.
// Kepler deduplicates the same vantage across collectors.
type PathKey struct {
	Peer   bgp.ASN
	Prefix netip.Prefix
}
