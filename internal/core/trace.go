package core

import (
	"sort"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
)

// Provenance traces answer "why did Kepler call this an outage?": the
// Section 4.3–4.4 methodology is a chain of evidence — signal groups over
// diverted stable paths, localization candidates considered and
// eliminated, collateral folds, data-plane verdicts — that the pipeline
// otherwise discards at each bin close. With Config.Tracing enabled the
// investigator records that chain per PoP-level signal group, accumulates
// it on the group's open outage across bins, and hands the finished
// OutageTrace to Hooks.TraceRecorded immediately after the OutageResolved
// callback of the same outage (so trace i always describes resolved outage
// i). Only a PoP-level group can reach an outage, so link-, AS- and
// operator-level groups get no chapter: their verdicts live in the
// incident log.
//
// Traces are derived output: recording never influences classification,
// disambiguation, probing or outage tracking, so detection output is
// byte-for-byte identical with tracing on or off (pinned by the
// trace-equivalence pipeline test). With tracing off no trace structure is
// allocated and every recording site is a single nil check.

// TraceVersion identifies the OutageTrace encoding; bump on any
// incompatible change so persisted traces from older formats are dropped
// rather than misread.
const TraceVersion = 1

// Trace size caps. Evidence is sampled, never unbounded: a long oscillating
// outage or a huge signal group must not balloon the WAL or the API
// payloads. Dropped counts record what the caps cut.
const (
	// traceMaxChapters bounds investigation chapters per outage.
	traceMaxChapters = 32
	// traceMaxSignals bounds per-AS signals recorded per chapter.
	traceMaxSignals = 16
	// traceMaxPathsPerSignal bounds diverted-path samples per signal.
	traceMaxPathsPerSignal = 5
)

// TraceDivertedPath is one sampled diverted stable path contributing to a
// signal: the vantage AS and prefix identify the monitored path, Near/Far
// the affected interconnection, OldPath the abandoned AS path.
type TraceDivertedPath struct {
	Vantage bgp.ASN
	Prefix  string
	Near    bgp.ASN
	Far     bgp.ASN
	OldPath []bgp.ASN
}

// TraceSignal is one (PoP, near-AS) threshold crossing: Diverted of Stable
// baseline paths left the PoP within the bin (Section 4.2's per-AS
// grouping), with up to traceMaxPathsPerSignal sampled paths as evidence.
type TraceSignal struct {
	Near     bgp.ASN
	Diverted int
	Stable   int
	Paths    []TraceDivertedPath
}

// TraceStep is one decision in the classification/disambiguation walk:
// which candidates were considered at a stage, which were eliminated, and
// what (if anything) the stage chose. Outcome is a short human-readable
// verdict ("margin not met", "unique common IXP", ...).
type TraceStep struct {
	Stage      string
	Outcome    string
	Candidates []colo.PoP `json:",omitempty"`
	Eliminated []colo.PoP `json:",omitempty"`
	Chosen     colo.PoP   `json:",omitempty"`
}

// TraceFold records that this chapter's group was claimed as collateral of
// a more specific or larger concurrent signal (Section 4.3's correlation of
// signals from multiple PoPs): SharedPaths of TotalPaths already belonged
// to the dominating epicenter.
type TraceFold struct {
	Into        colo.PoP
	SharedPaths int
	TotalPaths  int
}

// TraceProbeResult is one measured candidate of a probe campaign.
type TraceProbeResult struct {
	Target    colo.PoP
	Confirmed bool
	HasData   bool
}

// TraceProbe records the data-plane campaign that validated (or localized)
// the chapter's group. Campaign is the pending-confirmation id. Outcome is
// "promoted", "confirmed" or "unvalidated".
type TraceProbe struct {
	Campaign   uint64
	Outcome    string
	Candidates []colo.PoP
	Results    []TraceProbeResult `json:",omitempty"`
	Epicenter  colo.PoP           `json:",omitempty"`
}

// TraceChapter is the evidence one bin's investigation contributed to an
// outage: the PoP-level signal group (per-AS signals with stable-baseline
// counts and sampled diverted paths), the classification step, the
// disambiguation steps walked, any collateral fold, and the probe campaign
// verdict.
type TraceChapter struct {
	Bin       time.Time
	SignalPoP colo.PoP
	// Kind is the classification verdict in IncidentKind String form. It is
	// always "pop", since only PoP-level groups get a chapter; it is kept
	// because the served JSON of TraceVersion 1 carries it.
	Kind string
	// Epicenter is where disambiguation (plus folding/city abstraction)
	// finally attributed the group; zero while unresolved.
	Epicenter colo.PoP
	// StableTotal is the full stable-path baseline at the signal PoP.
	StableTotal int
	// TotalSignals counts the group's per-AS signals before sampling.
	TotalSignals int
	Signals      []TraceSignal
	Steps        []TraceStep `json:",omitempty"`
	Fold         *TraceFold  `json:",omitempty"`
	Probe        *TraceProbe `json:",omitempty"`
}

// OutageTrace is the complete evidence chain behind one resolved outage.
// Chapters appear in bin order; DroppedChapters counts evidence cut by
// traceMaxChapters.
type OutageTrace struct {
	Version int
	PoP     colo.PoP
	Start   time.Time
	End     time.Time
	// Merged counts oscillation segments folded into the traced incident,
	// mirroring Outage.Merged.
	Merged          int
	Chapters        []TraceChapter
	DroppedChapters int `json:",omitempty"`
}

// newChapter captures the chapter skeleton for one PoP-level signal group:
// bin, signal PoP, baseline count and sampled per-AS signals. Old AS paths are
// deep-copied — the shard recycles its divert slabs at finishBin, so no
// shard-owned memory may outlive the barrier inside a trace.
func newChapter(at time.Time, pop colo.PoP, sigs []signal, stableTotal int) *TraceChapter {
	ch := &TraceChapter{
		Bin:          at,
		SignalPoP:    pop,
		Kind:         IncidentPoP.String(),
		StableTotal:  stableTotal,
		TotalSignals: len(sigs),
	}
	n := len(sigs)
	if n > traceMaxSignals {
		n = traceMaxSignals
	}
	ch.Signals = make([]TraceSignal, 0, n)
	for _, s := range sigs[:n] {
		ts := TraceSignal{Near: s.near, Diverted: len(s.diverted), Stable: s.stable}
		pn := len(s.diverted)
		if pn > traceMaxPathsPerSignal {
			pn = traceMaxPathsPerSignal
		}
		ts.Paths = make([]TraceDivertedPath, 0, pn)
		for _, r := range s.diverted[:pn] {
			ts.Paths = append(ts.Paths, TraceDivertedPath{
				Vantage: r.key.Peer,
				Prefix:  r.key.Prefix.String(),
				Near:    r.ends.near,
				Far:     r.ends.far,
				OldPath: append([]bgp.ASN(nil), r.oldPath...),
			})
		}
		ch.Signals = append(ch.Signals, ts)
	}
	return ch
}

// step appends a decision step; nil-safe so recording sites stay one-liners
// on the disabled path. Callers must guard argument construction that does
// real work (fmt.Sprintf, fraction recomputation) behind their own nil check:
// arguments are evaluated before the receiver is.
func (ch *TraceChapter) step(s TraceStep) {
	if ch == nil {
		return
	}
	ch.Steps = append(ch.Steps, s)
}

// traceAppend folds a finished chapter into the outage's accumulated trace.
func (inv *investigator) traceAppend(o *openOutage, ch *TraceChapter) {
	if ch == nil || o == nil {
		return
	}
	if o.trace == nil {
		o.trace = &OutageTrace{Version: TraceVersion, PoP: o.epicenter}
	}
	if len(o.trace.Chapters) >= traceMaxChapters {
		o.trace.DroppedChapters++
		return
	}
	o.trace.Chapters = append(o.trace.Chapters, *ch)
}

// popSliceSorted returns a sorted copy for deterministic trace output when
// the source order came from map iteration.
func popSliceSorted(in []colo.PoP) []colo.PoP {
	out := append([]colo.PoP(nil), in...)
	sortPoPs(out)
	return out
}

// facilityPoPs and ixpPoPs lift ID slices into sorted trace candidate
// lists. Sorting here matters: some sources (e.g. the common-IXP
// intersection) carry map-iteration order, which must not leak into traces.
func facilityPoPs(ids []colo.FacilityID) []colo.PoP {
	out := make([]colo.PoP, 0, len(ids))
	for _, id := range ids {
		out = append(out, colo.FacilityPoP(id))
	}
	sortPoPs(out)
	return out
}

func ixpPoPs(ids []colo.IXPID) []colo.PoP {
	out := make([]colo.PoP, 0, len(ids))
	for _, id := range ids {
		out = append(out, colo.IXPPoP(id))
	}
	sortPoPs(out)
	return out
}

func sortPoPs(p []colo.PoP) {
	sort.Slice(p, func(i, j int) bool {
		if p[i].Kind != p[j].Kind {
			return p[i].Kind < p[j].Kind
		}
		return p[i].ID < p[j].ID
	})
}
