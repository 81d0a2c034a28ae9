package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/core"
	"kepler/internal/geo"
	"kepler/internal/metrics"
	"kepler/internal/registry"
	"kepler/internal/reports"
)

// DictionaryStatsResult reproduces Section 3.2's dictionary statistics and
// the attrition comparison against an older dictionary generation.
type DictionaryStatsResult struct {
	Stats communities.Stats
	Diff  communities.DiffStats
}

// DictionaryStats computes current dictionary statistics plus attrition
// against a simulated earlier generation (a 2008-style dictionary: fewer
// documenting operators, partially renumbered values — the
// Donnet–Bonaventure comparison).
func DictionaryStats(env *Env) *DictionaryStatsResult {
	stack := env.Stack
	stats := stack.Dict.ComputeStats(stack.Map, stack.Geo)

	// Older generation: drop ~45% of schemes, renumber ~10% of lows.
	var oldSchemes []registry.SchemeTruth
	for i, s := range stack.World.Truth.Schemes {
		if i%9 == 0 {
			continue // operator did not document yet
		}
		if i%2 == 0 {
			continue // operator did not exist / use communities yet
		}
		os := s
		os.Entries = append([]registry.SchemeEntry(nil), s.Entries...)
		for j := range os.Entries {
			if (i+j)%10 == 0 {
				os.Entries[j].Low += 7 // renumbered since
			}
		}
		oldSchemes = append(oldSchemes, os)
	}
	oldTruth := &registry.GroundTruth{
		Facilities: stack.World.Truth.Facilities,
		IXPs:       stack.World.Truth.IXPs,
		Schemes:    oldSchemes,
	}
	oldDocs := registry.RenderDocs(oldTruth, registry.DocOptions{DistractorsPerDoc: 2}, 2008)
	oldDict := communities.NewMiner(stack.Geo, stack.Map).Mine(oldDocs)

	return &DictionaryStatsResult{
		Stats: stats,
		Diff:  communities.Diff(oldDict, stack.Dict),
	}
}

// Render prints the Section 3.2 numbers.
func (r *DictionaryStatsResult) Render() string {
	var b strings.Builder
	s := r.Stats
	fmt.Fprintf(&b, "Section 3.2: community dictionary statistics\n")
	fmt.Fprintf(&b, "communities=%d ases=%d route-servers=%d cities=%d countries=%d ixps=%d facilities=%d\n",
		s.Communities, s.ASNs, s.RouteServers, s.Cities, s.Countries, s.IXPs, s.Facilities)
	fmt.Fprintf(&b, "(paper: 5284 communities, 468 ASes, 48 RS, 288 cities, 72 countries, 172 IXPs, 103 facilities)\n")
	fmt.Fprintf(&b, "granularity: city=%d ixp=%d facility=%d\n",
		s.ByGranularity[colo.PoPCity], s.ByGranularity[colo.PoPIXP], s.ByGranularity[colo.PoPFacility])
	conts := make([]geo.Continent, 0, len(s.ByContinent))
	for c := range s.ByContinent {
		conts = append(conts, c)
	}
	sort.Slice(conts, func(i, j int) bool { return conts[i] < conts[j] })
	for _, c := range conts {
		fmt.Fprintf(&b, "  continent %-13s entries=%d\n", c, s.ByContinent[c])
	}
	d := r.Diff
	fmt.Fprintf(&b, "attrition vs older generation: old=%d new=%d common=%d changed-meaning=%d (%.1f%%) stale=%d fresh=%d\n",
		d.OldTotal, d.NewTotal, d.Common, d.ChangedMeaning,
		100*float64(d.ChangedMeaning)/float64(maxInt(1, d.Common)), d.Stale, d.Fresh)
	fmt.Fprintf(&b, "(paper: only 1.5%% of common values changed meaning in 8 years)\n")
	return b.String()
}

// ValidationResult reproduces Section 5.3: true/false positives and false
// negatives against ground truth and public reports.
type ValidationResult struct {
	Detected       int
	TruePositives  int // detected + corroborated by ground truth
	Publicly       int // detected and also publicly reported
	FalsePositives int // detected with no matching ground-truth incident
	FalseNegatives int // full outages at trackable infrastructure missed
	PartialMissed  int // partial outages missed (paper: 4, mis-classified)
	// FullTrackable counts the full outages at trackable infrastructure,
	// detected or not: the denominator of recall.
	FullTrackable int
	// TruePositives split by how the detection located its truth: the
	// failed PoP itself, its city (multi-PoP abstraction), or a facility
	// hosting the failed IXP's fabric or vice versa (Figure 2's
	// interdependence).
	LocatedPoP, LocatedCity, LocatedRelated int
}

// Precision is the fraction of detections that match a truth.
func (r *ValidationResult) Precision() float64 {
	return float64(r.TruePositives) / float64(maxInt(1, r.Detected))
}

// Recall is the fraction of full outages at trackable infrastructure that
// were detected.
func (r *ValidationResult) Recall() float64 {
	return float64(r.FullTrackable-r.FalseNegatives) / float64(maxInt(1, r.FullTrackable))
}

// matchWindow tolerates detection/report timing slack.
const matchWindow = 3 * time.Hour

// match is how a detected outage located a ground-truth event.
type match int

const (
	noMatch      match = iota
	matchPoP           // the detection names the failed PoP itself
	matchCity          // a city-level detection names the failed PoP's city
	matchRelated       // a facility hosting the failed IXP's fabric, or vice versa
)

// truthMatches reports whether, and how, a detected outage corresponds to
// event ev.
func truthMatches(env *Env, o core.Outage, ev reports.Event) match {
	dt := o.Start.Sub(ev.Time)
	if dt < -matchWindow || dt > matchWindow {
		return noMatch
	}
	if o.PoP == ev.PoP {
		return matchPoP
	}
	// City-level detections match events in that city (multi-PoP
	// abstraction); facility detections match IXP events whose fabric the
	// facility hosts, and vice versa (Figure 2's interdependence).
	if o.PoP.Kind == colo.PoPCity && uint32(env.Stack.Map.CityOf(ev.PoP)) == o.PoP.ID {
		return matchCity
	}
	if o.PoP.Kind == colo.PoPFacility && ev.PoP.Kind == colo.PoPIXP {
		if ix, ok := env.Stack.Map.IXP(colo.IXPID(ev.PoP.ID)); ok {
			for _, f := range ix.Facilities {
				if uint32(f) == o.PoP.ID {
					return matchRelated
				}
			}
		}
	}
	if o.PoP.Kind == colo.PoPIXP && ev.PoP.Kind == colo.PoPFacility {
		if ix, ok := env.Stack.Map.IXP(colo.IXPID(o.PoP.ID)); ok {
			for _, f := range ix.Facilities {
				if uint32(f) == ev.PoP.ID {
					return matchRelated
				}
			}
		}
	}
	return noMatch
}

// Validation computes the Section 5.3 accounting.
func Validation(env *Env) *ValidationResult {
	r := &ValidationResult{Detected: len(env.Outages)}
	reported := reports.Sample(env.Res.Truth, reportsSeed)

	matchedTruth := make(map[int]bool)
	for _, o := range env.Outages {
		m := noMatch
		for _, ev := range env.Res.Truth {
			if m = truthMatches(env, o, ev); m != noMatch {
				matchedTruth[ev.ID] = true
				break
			}
		}
		switch m {
		case matchPoP:
			r.LocatedPoP++
		case matchCity:
			r.LocatedCity++
		case matchRelated:
			r.LocatedRelated++
		}
		if m != noMatch {
			r.TruePositives++
			for _, rep := range reported {
				if rep.Matches(o.PoP, o.Start, env.Stack.Map) {
					r.Publicly++
					break
				}
			}
		} else {
			r.FalsePositives++
		}
	}

	covered := env.Stack.Dict.Covers
	for _, ev := range env.Res.Truth {
		trackable := false
		switch ev.PoP.Kind {
		case colo.PoPFacility:
			trackable, _ = env.Stack.Map.Trackable(colo.FacilityID(ev.PoP.ID), covered)
		case colo.PoPIXP:
			if ix, ok := env.Stack.Map.IXP(colo.IXPID(ev.PoP.ID)); ok {
				n := 0
				for _, m := range ix.Members {
					if covered(m) {
						n++
					}
				}
				trackable = n >= colo.MinTrackableMembers
			}
		}
		if !trackable {
			continue
		}
		if ev.Full {
			r.FullTrackable++
		}
		if matchedTruth[ev.ID] {
			continue
		}
		if ev.Full {
			r.FalseNegatives++
		} else {
			r.PartialMissed++
		}
	}
	return r
}

// Render prints the validation accounting.
func (r *ValidationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.3: validation\n")
	fmt.Fprintf(&b, "detected=%d true-positives=%d publicly-corroborated=%d false-positives=%d\n",
		r.Detected, r.TruePositives, r.Publicly, r.FalsePositives)
	fmt.Fprintf(&b, "false-negatives(full,trackable)=%d partial-missed=%d\n", r.FalseNegatives, r.PartialMissed)
	fmt.Fprintf(&b, "(paper: 53/159 externally validated, 6 FP from fiber cuts, 0 full-outage FN, 4 partial missed)\n")
	return b.String()
}

// SummaryResult reproduces the Section 6.1 headline statistics.
type SummaryResult struct {
	Total          int
	FacilityCount  int
	IXPCount       int
	CityCount      int
	MedianDuration time.Duration
	OverOneHour    float64 // fraction of outages exceeding one hour
	EuropeFrac     float64
	USFrac         float64
	IXPMedian      time.Duration
	FacMedian      time.Duration
}

// Summary computes the headline outage statistics.
func Summary(env *Env) *SummaryResult {
	r := &SummaryResult{Total: len(env.Outages)}
	var all, fac, ixp []float64
	regions := map[string]int{}
	for _, o := range env.Outages {
		mins := o.Duration().Minutes()
		all = append(all, mins)
		switch o.PoP.Kind {
		case colo.PoPIXP:
			r.IXPCount++
			ixp = append(ixp, mins)
		case colo.PoPFacility:
			r.FacilityCount++
			fac = append(fac, mins)
		default:
			r.CityCount++
			fac = append(fac, mins)
		}
		if city, ok := env.Stack.Geo.City(env.Stack.Map.CityOf(o.PoP)); ok {
			switch {
			case city.Country == "US":
				regions["us"]++
			case city.Continent == geo.Europe:
				regions["eu"]++
			default:
				regions["other"]++
			}
		}
	}
	cdf := metrics.NewCDF(all)
	r.MedianDuration = time.Duration(cdf.Median() * float64(time.Minute))
	r.OverOneHour = 1 - cdf.At(60)
	if r.Total > 0 {
		r.EuropeFrac = float64(regions["eu"]) / float64(r.Total)
		r.USFrac = float64(regions["us"]) / float64(r.Total)
	}
	r.FacMedian = time.Duration(metrics.NewCDF(fac).Median() * float64(time.Minute))
	r.IXPMedian = time.Duration(metrics.NewCDF(ixp).Median() * float64(time.Minute))
	return r
}

// Render prints the headline statistics.
func (r *SummaryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.1: summary of detected outages\n")
	fmt.Fprintf(&b, "total=%d facility=%d ixp=%d city=%d\n", r.Total, r.FacilityCount, r.IXPCount, r.CityCount)
	fmt.Fprintf(&b, "median duration=%s over-1h=%.0f%% (paper: 17m median, 40%% over 1h)\n",
		metrics.FormatDuration(r.MedianDuration), 100*r.OverOneHour)
	fmt.Fprintf(&b, "median facility=%s ixp=%s (paper: IXP outages last longer)\n",
		metrics.FormatDuration(r.FacMedian), metrics.FormatDuration(r.IXPMedian))
	fmt.Fprintf(&b, "regional split: europe=%.0f%% us=%.0f%% (paper: 53%% / 31%%)\n",
		100*r.EuropeFrac, 100*r.USFrac)
	return b.String()
}
