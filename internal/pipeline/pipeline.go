// Package pipeline wires Kepler end to end: from a generated world it
// derives the noisy public data sources, merges the colocation map, mines
// the community dictionary, builds the AS-to-organization table, and
// produces ready-to-run detectors plus a simulation-backed data plane.
// Experiments, commands and examples all assemble the system through this
// package so they exercise the identical code path the paper describes:
// Kepler never sees ground truth, only the reconstructed sources.
package pipeline

import (
	"time"

	"kepler/internal/as2org"
	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/core"
	"kepler/internal/geo"
	"kepler/internal/mrt"
	"kepler/internal/registry"
	"kepler/internal/routing"
	"kepler/internal/simulate"
	"kepler/internal/topology"
	"kepler/internal/traceroute"
)

// Stack is an assembled Kepler deployment over one world.
type Stack struct {
	World *topology.World
	Geo   *geo.World
	// Map is Kepler's colocation map, rebuilt from noisy sources (not the
	// ground-truth map).
	Map  *colo.Map
	Dict *communities.Dictionary
	Orgs *as2org.Table
}

// snapshotOptions returns the source-noise profile used for Kepler's map.
// Member lists carry realistic gaps; facility/IXP *existence* coverage is
// complete so that identifiers remain stable between the ground-truth and
// reconstructed maps (PeeringDB's real weakness is stale member lists, not
// missing buildings).
func snapshotOptions() registry.SnapshotOptions {
	o := registry.DefaultSnapshotOptions()
	o.PeeringDBFacilityCoverage = 1.0
	return o
}

// Build assembles the stack for a world. The seed drives source noise and
// documentation rendering.
func Build(w *topology.World, seed int64) *Stack {
	facRecs, ixpRecs := registry.Snapshot(w.Truth, snapshotOptions(), seed)
	b := colo.NewBuilder(w.Geo)
	for _, r := range facRecs {
		b.AddFacility(r)
	}
	for _, r := range ixpRecs {
		b.AddIXP(r)
	}
	cmap := b.Build()

	docs := registry.RenderDocs(w.Truth, registry.DocOptions{DistractorsPerDoc: 3}, seed+1)
	dict := communities.NewMiner(w.Geo, cmap).Mine(docs)
	orgs := as2org.Build(w.Registrations())

	return &Stack{World: w, Geo: w.Geo, Map: cmap, Dict: dict, Orgs: orgs}
}

// NewDetector builds an engine with one inline shard over the stack: no
// goroutines, every bin closed (see core.New).
func (s *Stack) NewDetector(cfg core.Config) *core.Engine {
	return core.New(cfg, s.Dict, s.Map, s.Orgs)
}

// NewEngine builds an engine with shard workers over the stack; shards <= 0
// selects GOMAXPROCS. The engine emits exactly the same outages and
// incidents as NewDetector's. Callers own Close.
func (s *Stack) NewEngine(cfg core.Config, shards int) *core.Engine {
	return core.NewEngine(cfg, s.Dict, s.Map, s.Orgs, shards)
}

// Run feeds a time-sorted record stream through a fresh inline engine and
// returns all completed outages and classified incidents. A non-nil dp
// enables data-plane validation.
func (s *Stack) Run(records []*mrt.Record, cfg core.Config, dp core.DataPlane) ([]core.Outage, []core.Incident) {
	return run(s.NewDetector(cfg), records, dp)
}

// RunEngine is Run on an engine with the given number of shard workers,
// with identical output for any stream.
func (s *Stack) RunEngine(records []*mrt.Record, cfg core.Config, dp core.DataPlane, shards int) ([]core.Outage, []core.Incident) {
	eng := s.NewEngine(cfg, shards)
	defer eng.Close()
	return run(eng, records, dp)
}

// run drives eng over records as live.Pump does over a source that reaches
// its end, Process per record and one Flush at the last, and collects the
// outages those calls complete.
func run(eng *core.Engine, records []*mrt.Record, dp core.DataPlane) ([]core.Outage, []core.Incident) {
	if dp != nil {
		eng.SetDataPlane(dp)
	}
	var outs []core.Outage
	for _, rec := range records {
		outs = append(outs, eng.Process(rec)...)
	}
	if len(records) > 0 {
		outs = append(outs, eng.Flush(records[len(records)-1].Time)...)
	}
	return outs, eng.Incidents()
}

// SimDataPlane validates suspected outages with targeted synthetic
// traceroutes, mirroring Section 4.4: it selects member pairs whose healthy
// baseline paths cross the suspected PoP, re-traces them under the failure
// state at the queried instant, and confirms when most baseline paths no
// longer cross the PoP.
type SimDataPlane struct {
	res      *simulate.Result
	tracer   *traceroute.Tracer
	cmap     *colo.Map
	platform *traceroute.Platform
	// maxPairs bounds targeted measurements per query (platform etiquette).
	maxPairs int
}

// NewSimDataPlane builds the data plane over a rendered scenario. budget
// caps the total number of targeted traceroutes.
func (s *Stack) NewSimDataPlane(res *simulate.Result, budget int) *SimDataPlane {
	return &SimDataPlane{
		res:      res,
		tracer:   traceroute.NewTracer(res.Engine),
		cmap:     s.Map,
		platform: &traceroute.Platform{Budget: budget},
		maxPairs: 8,
	}
}

// Used returns the number of traceroutes spent.
func (dp *SimDataPlane) Used() int { return dp.platform.Used }

// crossesPoP reports whether a trace crosses the PoP at the right
// granularity.
func (dp *SimDataPlane) crossesPoP(t *traceroute.Trace, pop colo.PoP) bool {
	switch pop.Kind {
	case colo.PoPFacility:
		return t.CrossesFacility(colo.FacilityID(pop.ID))
	case colo.PoPIXP:
		return t.CrossesIXP(colo.IXPID(pop.ID))
	case colo.PoPCity:
		for _, f := range dp.cmap.FacilitiesInCity(geo.CityID(pop.ID)) {
			if t.CrossesFacility(f) {
				return true
			}
		}
		for _, ix := range dp.cmap.IXPsInCity(geo.CityID(pop.ID)) {
			if t.CrossesIXP(ix) {
				return true
			}
		}
	}
	return false
}

// pairsAt selects AS pairs that interconnect over the PoP — the pair
// selection of Section 4.4 ("it identifies the baseline paths of AS pairs
// that interconnect over the PoP"), which in the real system comes from the
// traceroute archive's stable subpaths.
func (dp *SimDataPlane) pairsAt(pop colo.PoP) [][2]bgp.ASN {
	var out [][2]bgp.ASN
	add := func(a, b bgp.ASN) {
		if len(out) < dp.maxPairs*4 {
			out = append(out, [2]bgp.ASN{a, b})
		}
	}
	world := dp.res.Engine.World()
	match := func(l *topology.Interconnect) bool {
		switch pop.Kind {
		case colo.PoPFacility:
			f := colo.FacilityID(pop.ID)
			return l.Facility == f || l.AFac == f || l.BFac == f
		case colo.PoPIXP:
			return l.IXP == colo.IXPID(pop.ID)
		case colo.PoPCity:
			city := geo.CityID(pop.ID)
			if l.Facility != 0 && dp.cmap.CityOf(colo.FacilityPoP(l.Facility)) == city {
				return true
			}
			return l.IXP != 0 && dp.cmap.CityOf(colo.IXPPoP(l.IXP)) == city
		}
		return false
	}
	for _, l := range world.Links {
		if match(l) {
			add(l.A, l.B)
		}
	}
	return out
}

// Confirm implements core.DataPlane.
func (dp *SimDataPlane) Confirm(pop colo.PoP, at time.Time) (bool, bool) {
	pairs := dp.pairsAt(pop)
	if len(pairs) == 0 {
		return false, false
	}
	eng := dp.res.Engine
	healthyMask := routing.NewMask()
	nowMask := dp.res.MaskAt(at)

	healthyTables := map[bgp.ASN]*routing.Table{}
	nowTables := map[bgp.ASN]*routing.Table{}
	tbl := func(cache map[bgp.ASN]*routing.Table, mask *routing.Mask, origin bgp.ASN) *routing.Table {
		t, ok := cache[origin]
		if !ok {
			t = eng.ComputeOrigin(origin, mask)
			cache[origin] = t
		}
		return t
	}

	baseline, affected := 0, 0
	for _, pr := range pairs {
		if baseline >= dp.maxPairs {
			break
		}
		src, dst := pr[0], pr[1]
		ht, ok := dp.tracer.Trace(tbl(healthyTables, healthyMask, dst), src)
		if !ok || !dp.crossesPoP(ht, pop) {
			continue
		}
		baseline++
		nt, err := dp.platform.Trace(dp.tracer, tbl(nowTables, nowMask, dst), src)
		if err == traceroute.ErrBudget {
			return false, false
		}
		if err != nil || !dp.crossesPoP(nt, pop) {
			affected++
		}
	}
	if baseline == 0 {
		return false, false
	}
	return float64(affected)/float64(baseline) >= 0.5, true
}
