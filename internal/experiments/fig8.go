package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/metrics"
	"kepler/internal/topology"
)

// Figure8aResult reproduces Figure 8a: for a set of ground-truth ASes, the
// distribution of the number of physical interconnection locations per AS
// link — ground truth versus what the community dictionary recovers.
type Figure8aResult struct {
	GroundTruthASes []bgp.ASN
	// TruthCounts[n] and MappedCounts[n] are the numbers of AS links with
	// exactly n physical locations.
	TruthCounts  map[int]int
	MappedCounts map[int]int
	LinksTotal   int
	LinksMissed  int // links with locations invisible to the dictionary
}

// Figure8a compares dictionary-mapped interconnection locations against the
// world's ground truth for the four most-documenting transit ASes (the
// paper obtained such ground truth from three ISPs and one CDN).
func Figure8a(env *Env) *Figure8aResult {
	stack := env.Stack
	r := &Figure8aResult{TruthCounts: map[int]int{}, MappedCounts: map[int]int{}}

	// Choose the 4 facility-granularity documenting ASes with the most links.
	type cand struct {
		asn   bgp.ASN
		links int
	}
	var cands []cand
	for _, a := range stack.World.ASes {
		if a.UsesCommunities && a.Documents && a.Granularity == colo.PoPFacility {
			cands = append(cands, cand{a.ASN, len(stack.World.LinksOf(a.ASN))})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].links != cands[j].links {
			return cands[i].links > cands[j].links
		}
		return cands[i].asn < cands[j].asn
	})
	if len(cands) > 4 {
		cands = cands[:4]
	}
	for _, c := range cands {
		r.GroundTruthASes = append(r.GroundTruthASes, c.asn)
	}

	for _, asn := range r.GroundTruthASes {
		a, _ := stack.World.AS(asn)
		// Group this AS's links by neighbor.
		perNeighbor := map[bgp.ASN]map[colo.PoP]bool{}
		for _, l := range stack.World.LinksOf(asn) {
			pop := l.IngressPoP(asn, colo.PoPFacility, stack.World.Map)
			if !pop.IsValid() {
				continue
			}
			n := l.Peer(asn)
			if perNeighbor[n] == nil {
				perNeighbor[n] = map[colo.PoP]bool{}
			}
			perNeighbor[n][pop] = true
		}
		for _, pops := range perNeighbor {
			r.LinksTotal++
			r.TruthCounts[len(pops)]++
			// Mapped: locations whose community value is in the dictionary.
			mapped := 0
			for pop := range pops {
				if _, ok := stack.Dict.Lookup(topology.CommunityFor(asn, pop)); ok {
					mapped++
				}
			}
			r.MappedCounts[mapped]++
			if mapped == 0 {
				r.LinksMissed++
			}
		}
		_ = a
	}
	return r
}

// MissedFraction is the share of AS links the dictionary cannot locate.
func (r *Figure8aResult) MissedFraction() float64 {
	if r.LinksTotal == 0 {
		return 0
	}
	return float64(r.LinksMissed) / float64(r.LinksTotal)
}

// Render prints the two distributions.
func (r *Figure8aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8a: physical locations per AS link — ground truth vs communities-mapped\n")
	fmt.Fprintf(&b, "ground-truth ASes: %v, links: %d\n", r.GroundTruthASes, r.LinksTotal)
	maxN := 0
	for n := range r.TruthCounts {
		if n > maxN {
			maxN = n
		}
	}
	fmt.Fprintf(&b, "%-12s %8s %8s\n", "#locations", "truth", "mapped")
	for n := 0; n <= maxN; n++ {
		fmt.Fprintf(&b, "%-12d %8d %8d\n", n, r.TruthCounts[n], r.MappedCounts[n])
	}
	fmt.Fprintf(&b, "links with no mapped location: %.1f%% (paper: <5%% missed)\n", 100*r.MissedFraction())
	return b.String()
}

// Figure8bResult reproduces Figure 8b: the CDF of outage durations for
// facilities and IXPs, with the 99.9/99.99/99.999% yearly-uptime marks.
type Figure8bResult struct {
	FacilityMinutes []float64
	IXPMinutes      []float64
}

// Uptime marks in minutes per year.
const (
	Uptime999   = 525.6 // 99.9%: ~8.76h/year
	Uptime9999  = 52.56 // 99.99%
	Uptime99999 = 5.256 // 99.999%
)

// Figure8b extracts duration distributions from the detected outages.
func Figure8b(env *Env) *Figure8bResult {
	r := &Figure8bResult{}
	for _, o := range env.Outages {
		mins := o.Duration().Minutes()
		switch o.PoP.Kind {
		case colo.PoPIXP:
			r.IXPMinutes = append(r.IXPMinutes, mins)
		default:
			r.FacilityMinutes = append(r.FacilityMinutes, mins)
		}
	}
	return r
}

// Render prints both CDFs and the uptime crossings.
func (r *Figure8bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8b: CDF of outage durations (minutes)\n")
	fc := metrics.NewCDF(r.FacilityMinutes)
	xc := metrics.NewCDF(r.IXPMinutes)
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "quantile", "facility", "ixp")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		fmt.Fprintf(&b, "%-12.2f %10.1f %10.1f\n", q, fc.Quantile(q), xc.Quantile(q))
	}
	fmt.Fprintf(&b, "fraction exceeding 99.999%%/99.99%%/99.9%% yearly budget: facility %.2f/%.2f/%.2f  ixp %.2f/%.2f/%.2f\n",
		1-fc.At(Uptime99999), 1-fc.At(Uptime9999), 1-fc.At(Uptime999),
		1-xc.At(Uptime99999), 1-xc.At(Uptime9999), 1-xc.At(Uptime999))
	fmt.Fprintf(&b, "(paper: median 17m, 40%% over 1h, IXP outages longer than facility outages)\n")
	return b.String()
}

// Figure8cResult reproduces Figure 8c: the AMS-IX outage seen through three
// community aggregation granularities.
type Figure8cResult struct {
	Times    []time.Time
	Facility []float64 // the "SARA" fabric facility
	IXP      []float64 // AMS-IX itself
	City     []float64 // Amsterdam
	Outage   time.Time
}

// Figure8c computes the per-granularity path-change fractions around the
// injected fabric outage.
func Figure8c(cs *CaseStudy) *Figure8cResult {
	windowStart := cs.Events[0].Start.Add(-3 * time.Hour)
	windowEnd := cs.Events[0].Start.Add(5 * time.Hour)
	bucket := 15 * time.Minute

	pops := []colo.PoP{
		colo.FacilityPoP(cs.Facility),
		colo.IXPPoP(cs.IXP),
		colo.CityPoP(cs.City),
	}
	series := PathChangeSeries(cs.Res.Records, cs.Stack.Dict, cs.Stack.Map, pops, windowStart, windowEnd, bucket)

	r := &Figure8cResult{Outage: cs.Events[0].Start}
	fac, ixp, city := series[pops[0]], series[pops[1]], series[pops[2]]
	for i := range ixp.Values {
		r.Times = append(r.Times, ixp.BucketTime(i))
		r.Facility = append(r.Facility, fac.Values[i])
		r.IXP = append(r.IXP, ixp.Values[i])
		r.City = append(r.City, city.Values[i])
	}
	return r
}

// Render prints the three series.
func (r *Figure8cResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8c: AMS-IX-style outage through different community granularities\n")
	fmt.Fprintf(&b, "outage injected at %s\n", r.Outage.Format("15:04"))
	fmt.Fprintf(&b, "%-7s %9s %7s %7s\n", "time", "facility", "ixp", "city")
	for i := range r.Times {
		fmt.Fprintf(&b, "%-7s %9.2f %7.2f %7.2f\n", r.Times[i].Format("15:04"), r.Facility[i], r.IXP[i], r.City[i])
	}
	fmt.Fprintf(&b, "(paper: visible at all granularities; the IXP-tagged paths show the deepest drop)\n")
	return b.String()
}
