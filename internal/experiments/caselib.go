package experiments

import (
	"fmt"
	"sync"
	"time"

	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/core"
	"kepler/internal/geo"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

// CaseStudy is a dedicated scenario around one or more injected outages,
// used by the Figures 8c, 9 and 10 experiments.
type CaseStudy struct {
	Stack  *pipeline.Stack
	Res    *simulate.Result
	Events []simulate.Event

	// The AMS-IX-like exchange and its environment.
	IXP      colo.IXPID
	Facility colo.FacilityID // a fabric facility (the "SARA" role)
	City     geo.CityID

	Start, End time.Time
}

var (
	amsOnce sync.Once
	amsCase *CaseStudy
	amsErr  error

	lonOnce sync.Once
	lonCase *CaseStudy
	lonErr  error
)

// caseWorld builds the world shared by the case studies.
func caseWorld() (*topology.World, *pipeline.Stack, error) {
	cfg := topology.DefaultConfig()
	cfg.Seed = 515
	w, err := topology.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	return w, pipeline.Build(w, 13), nil
}

// biggestIXP returns the IXP with the most dictionary-covered members and
// its largest fabric facility.
func biggestIXP(s *pipeline.Stack) (colo.IXPID, colo.FacilityID) {
	var bestIX colo.IXPID
	var bestFac colo.FacilityID
	bestN := 0
	for _, ix := range s.Map.IXPs() {
		n := 0
		for _, m := range ix.Members {
			if s.Dict.Covers(m) {
				n++
			}
		}
		if n > bestN && len(ix.Facilities) > 0 {
			bestIX, bestN = ix.ID, n
			bestFac = ix.Facilities[0]
			most := 0
			for _, f := range ix.Facilities {
				if fac, ok := s.Map.Facility(f); ok && len(fac.Members) > most {
					most = len(fac.Members)
					bestFac = f
				}
			}
		}
	}
	return bestIX, bestFac
}

// AMSIXCase returns the AMS-IX-style case study: a ~30-minute loop in the
// switching fabric of the world's largest exchange (the 2015-05-13 incident
// of Section 6.2), rendered with sticky paths so that a tail of routes
// never returns (Section 6.3).
func AMSIXCase() (*CaseStudy, error) {
	amsOnce.Do(func() {
		amsCase, amsErr = buildAMSIXCase()
	})
	return amsCase, amsErr
}

func buildAMSIXCase() (*CaseStudy, error) {
	w, stack, err := caseWorld()
	if err != nil {
		return nil, err
	}
	ix, fab := biggestIXP(stack)
	if ix == 0 {
		return nil, fmt.Errorf("experiments: no trackable IXP in case world")
	}
	start := time.Date(2015, 5, 6, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 5, 20, 0, 0, 0, 0, time.UTC)
	outage := simulate.Event{
		ID: 0, Kind: simulate.EvIXP, IXP: ix,
		Start:    time.Date(2015, 5, 13, 10, 0, 0, 0, time.UTC),
		Duration: 30 * time.Minute,
	}
	res, err := simulate.Render(w, []simulate.Event{outage}, start, end, simulate.RenderConfig{
		Seed: 21, StickyFraction: 0.05,
	})
	if err != nil {
		return nil, err
	}
	return &CaseStudy{
		Stack: stack, Res: res, Events: []simulate.Event{outage},
		IXP: ix, Facility: fab, City: stack.Map.CityOf(colo.IXPPoP(ix)),
		Start: start, End: end,
	}, nil
}

// LondonCase returns the two-facility case study of Figure 9: two facility
// outages in one city on consecutive days, with an AS-level de-peering
// decoy between them (the paper's events A, B and C).
func LondonCase() (*CaseStudy, error) {
	lonOnce.Do(func() {
		lonCase, lonErr = buildLondonCase()
	})
	return lonCase, lonErr
}

func buildLondonCase() (*CaseStudy, error) {
	w, stack, err := caseWorld()
	if err != nil {
		return nil, err
	}
	// A city with at least two well-populated facilities and an IXP.
	var city geo.CityID
	var facA, facB colo.FacilityID
	var ix colo.IXPID
	bestScore := 0
	for _, candIX := range stack.Map.IXPs() {
		c := stack.Map.CityOf(colo.IXPPoP(candIX.ID))
		facs := stack.Map.FacilitiesInCity(c)
		if len(facs) < 2 {
			continue
		}
		// Two most populated facilities in this city.
		var fa, fb colo.FacilityID
		na, nb := 0, 0
		for _, f := range facs {
			fac, _ := stack.Map.Facility(f)
			switch {
			case len(fac.Members) > na:
				fb, nb = fa, na
				fa, na = f, len(fac.Members)
			case len(fac.Members) > nb:
				fb, nb = f, len(fac.Members)
			}
		}
		if nb >= 6 && na+nb > bestScore {
			bestScore = na + nb
			city, facA, facB, ix = c, fa, fb, candIX.ID
		}
	}
	if city == geo.NoCity {
		return nil, fmt.Errorf("experiments: no two-facility city in case world")
	}

	start := time.Date(2016, 7, 13, 0, 0, 0, 0, time.UTC)
	end := time.Date(2016, 7, 28, 0, 0, 0, 0, time.UTC)
	// A busy AS in the city for the decoy event.
	var decoy *topology.AS
	for _, a := range stack.World.ASes {
		if a.Type != topology.Tier2 {
			continue
		}
		for _, f := range a.Facilities {
			if f == facA || f == facB {
				decoy = a
			}
		}
	}
	events := []simulate.Event{
		{ID: 0, Kind: simulate.EvFacility, Facility: facA, // event A
			Start: time.Date(2016, 7, 20, 1, 30, 0, 0, time.UTC), Duration: 4 * time.Hour},
		{ID: 2, Kind: simulate.EvFacility, Facility: facB, // event C
			Start: time.Date(2016, 7, 21, 9, 0, 0, 0, time.UTC), Duration: 3 * time.Hour},
	}
	if decoy != nil {
		events = append(events, simulate.Event{ // event B
			ID: 1, Kind: simulate.EvAS, AS: decoy.ASN,
			Start: time.Date(2016, 7, 20, 13, 0, 0, 0, time.UTC), Duration: 2 * time.Hour,
		})
	}
	res, err := simulate.Render(w, events, start, end, simulate.RenderConfig{Seed: 23, StickyFraction: 0.04})
	if err != nil {
		return nil, err
	}
	return &CaseStudy{
		Stack: stack, Res: res, Events: events,
		IXP: ix, Facility: facA, City: city,
		Start: start, End: end,
	}, nil
}

// FacilityB returns the second facility of the London case (event C's
// target).
func (c *CaseStudy) FacilityB() colo.FacilityID {
	for _, e := range c.Events {
		if e.ID == 2 {
			return e.Facility
		}
	}
	return 0
}

// PathChangeSeries tracks, per time bucket, the fraction of monitored paths
// tagged with a PoP that changed away from it — the quantity Figures 8c and
// 9a plot at different aggregation granularities.
func PathChangeSeries(records []*mrt.Record, dict *communities.Dictionary, cmap *colo.Map,
	pops []colo.PoP, start, end time.Time, bucket time.Duration) map[colo.PoP]*metrics.Series {

	leaves := make(map[colo.PoP]*metrics.Series, len(pops))
	denoms := make(map[colo.PoP]*metrics.Series, len(pops))
	want := make(map[colo.PoP]bool, len(pops))
	for _, p := range pops {
		leaves[p] = metrics.NewSeries(start, end, bucket)
		denoms[p] = metrics.NewSeries(start, end, bucket)
		want[p] = true
	}
	// Current tag state per path and per-PoP tagged path counts. The
	// denominator of each bucket is the tagged count when the bucket is
	// first touched (≈ bucket start), so a mass exodus within one bucket
	// cannot push the fraction past 1.
	tags := map[core.PathKey]map[colo.PoP]bool{}
	tagged := map[colo.PoP]int{}

	leave := func(at time.Time, pop colo.PoP) {
		if !want[pop] {
			return
		}
		d := denoms[pop]
		i := int(at.Sub(start) / bucket)
		if i >= 0 && i < len(d.Values) && d.Values[i] == 0 {
			d.Values[i] = float64(tagged[pop])
		}
		leaves[pop].Add(at, 1)
	}

	for _, rec := range records {
		if rec.Update == nil {
			continue
		}
		for _, p := range rec.Update.Withdrawn {
			key := core.PathKey{Peer: rec.PeerAS, Prefix: p}
			for pop := range tags[key] {
				leave(rec.Time, pop)
				tagged[pop]--
			}
			delete(tags, key)
		}
		if len(rec.Update.Announced) == 0 {
			continue
		}
		hops := dict.Annotate(rec.Update.Attrs.ASPath, rec.Update.Attrs.Communities, cmap)
		newTags := map[colo.PoP]bool{}
		for _, h := range hops {
			newTags[h.PoP] = true
		}
		for _, p := range rec.Update.Announced {
			key := core.PathKey{Peer: rec.PeerAS, Prefix: p}
			old := tags[key]
			for pop := range old {
				if !newTags[pop] {
					leave(rec.Time, pop)
					tagged[pop]--
				}
			}
			for pop := range newTags {
				if !old[pop] {
					tagged[pop]++
				}
			}
			cp := make(map[colo.PoP]bool, len(newTags))
			for pop := range newTags {
				cp[pop] = true
			}
			tags[key] = cp
		}
	}
	series := make(map[colo.PoP]*metrics.Series, len(pops))
	for _, p := range pops {
		out := metrics.NewSeries(start, end, bucket)
		for i := range out.Values {
			if d := denoms[p].Values[i]; d > 0 {
				frac := leaves[p].Values[i] / d
				if frac > 1 {
					frac = 1
				}
				out.Values[i] = frac
			}
		}
		series[p] = out
	}
	return series
}
