package core

import (
	"fmt"
	"sort"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/geo"
)

// popGroup aggregates all signals raised for one PoP within a bin.
type popGroup struct {
	pop     colo.PoP
	signals []signal
	links   map[popEnd]bool
	nears   map[bgp.ASN]bool
	fars    map[bgp.ASN]bool
	paths   int
	// probeCands is the disambiguation candidate set recorded by
	// resolveByProbe: with a prober wired, openOutageFor parks the group as
	// a campaign over these.
	probeCands []colo.PoP
	// trace is the provenance chapter under construction (Config.Tracing);
	// nil when tracing is disabled. Built during the pure classification.
	trace *TraceChapter
}

func buildGroup(pop colo.PoP, signals []signal) *popGroup {
	g := &popGroup{
		pop: pop, signals: signals,
		links: map[popEnd]bool{}, nears: map[bgp.ASN]bool{}, fars: map[bgp.ASN]bool{},
	}
	for _, s := range signals {
		for _, r := range s.diverted {
			g.paths++
			if r.ends.near != 0 {
				g.nears[r.ends.near] = true
			}
			if r.ends.far != 0 && r.ends.near != 0 {
				g.fars[r.ends.far] = true
				g.links[r.ends] = true
			}
		}
	}
	return g
}

func (g *popGroup) affectedASes() []bgp.ASN {
	set := map[bgp.ASN]bool{}
	for a := range g.nears {
		set[a] = true
	}
	for a := range g.fars {
		set[a] = true
	}
	out := make([]bgp.ASN, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// commonAS returns the single AS every affected link shares, or 0.
func (g *popGroup) commonAS() bgp.ASN {
	var links []popEnd
	for l := range g.links {
		links = append(links, l)
	}
	if len(links) == 0 {
		return 0
	}
	// The intersection fold below is order-independent, but sort anyway:
	// determinism that is visible mechanically beats determinism that
	// needs a commutativity argument.
	sort.Slice(links, func(i, j int) bool {
		if links[i].near != links[j].near {
			return links[i].near < links[j].near
		}
		return links[i].far < links[j].far
	})
	cands := map[bgp.ASN]bool{links[0].near: true, links[0].far: true}
	for _, l := range links[1:] {
		next := map[bgp.ASN]bool{}
		if cands[l.near] {
			next[l.near] = true
		}
		if cands[l.far] {
			next[l.far] = true
		}
		cands = next
		if len(cands) == 0 {
			return 0
		}
	}
	// Deterministic pick if both endpoints of a single link survive.
	var out bgp.ASN
	for a := range cands {
		if out == 0 || a < out {
			out = a
		}
	}
	return out
}

// majorityPathShare is the fraction of the group's diverted old paths an
// AS must appear on to count as a common-cause candidate. Strict
// intersection is too brittle: when a transit AS fails, its customers
// rehome and second-order churn diverts paths that never crossed the
// failed AS.
const majorityPathShare = 0.8

// commonPathASes returns the ASes present on at least majorityPathShare of
// the group's diverted old paths, most frequent first — the Section 4.3
// AS-level candidates. Callers must pair this with a global-health test:
// collector peers trivially appear on all of their own paths.
func (g *popGroup) commonPathASes() []bgp.ASN {
	count := map[bgp.ASN]int{}
	total := 0
	for _, s := range g.signals {
		for _, r := range s.diverted {
			if len(r.oldPath) == 0 {
				continue
			}
			total++
			for _, a := range r.oldPath {
				count[a]++
			}
		}
	}
	if total == 0 {
		return nil
	}
	min := int(majorityPathShare * float64(total))
	if float64(min) < majorityPathShare*float64(total) {
		min++ // ceiling: a sub-majority count must not qualify
	}
	if min < 1 {
		min = 1
	}
	var out []bgp.ASN
	for a, n := range count {
		if n >= min {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if count[out[i]] != count[out[j]] {
			return count[out[i]] > count[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// pathKeys returns the set of diverted path keys of the group.
func (g *popGroup) pathKeys() map[PathKey]bool {
	out := make(map[PathKey]bool, g.paths)
	for _, s := range g.signals {
		for _, r := range s.diverted {
			out[r.key] = true
		}
	}
	return out
}

// vanishedCommonAS returns an AS present on (nearly) every diverted old
// path that has also lost the bulk of its monitored presence — the
// AS-level test of Section 4.3. A hub that lost one site keeps most of its
// paths elsewhere and does not qualify; a de-peered or failed AS drops to
// (near) zero.
func (inv *investigator) vanishedCommonAS(g *popGroup) bgp.ASN {
	for _, z := range g.commonPathASes() {
		divertedThrough := 0
		for _, s := range g.signals {
			for _, r := range s.diverted {
				if r.oldPath.Contains(z) {
					divertedThrough++
				}
			}
		}
		// Remaining monitored paths through z after the bin's changes: if
		// fewer survive than left, z itself is the casualty.
		if inv.ps.pathsContaining[z] < divertedThrough {
			return z
		}
	}
	return 0
}

// commonOrgEverywhere reports whether a single organization touches every
// affected link (operator-level incidents, Section 4.3).
func (inv *investigator) commonOrgEverywhere(g *popGroup) bool {
	if inv.orgs == nil || len(g.links) == 0 {
		return false
	}
	type org = uint32
	cands := map[org]bool{}
	first := true
	for l := range g.links {
		here := map[org]bool{}
		if id := inv.orgs.OrgOf(l.near); id != 0 {
			here[org(id)] = true
		}
		if id := inv.orgs.OrgOf(l.far); id != 0 {
			here[org(id)] = true
		}
		if first {
			cands = here
			first = false
			continue
		}
		next := map[org]bool{}
		for o := range cands {
			if here[o] {
				next[o] = true
			}
		}
		cands = next
		if len(cands) == 0 {
			return false
		}
	}
	return len(cands) > 0
}

// distinctNonSiblings counts ASes that belong to pairwise-different
// organizations (unknown orgs count individually).
func (inv *investigator) distinctNonSiblings(set map[bgp.ASN]bool) int {
	asns := make([]bgp.ASN, 0, len(set))
	for a := range set {
		if a != 0 {
			asns = append(asns, a)
		}
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	if inv.orgs == nil {
		return len(asns)
	}
	return inv.orgs.DistinctOrgs(asns)
}

// binVanishedAS looks for a single AS that explains the whole bin: present
// on most diverted paths across *all* signals and globally vanished. The
// death of a densely connected transit AS floods every monitored PoP with
// collateral signals (the paper's Figure 9a event B at planetary scale);
// no per-PoP test can see that, only the bin-wide view.
func (inv *investigator) binVanishedAS(signals []signal) bgp.ASN {
	count := map[bgp.ASN]int{}
	seen := map[PathKey]bool{}
	total := 0
	for _, s := range signals {
		for _, r := range s.diverted {
			if len(r.oldPath) == 0 || seen[r.key] {
				continue
			}
			seen[r.key] = true
			total++
			for _, a := range r.oldPath {
				count[a]++
			}
		}
	}
	if total < 10 {
		return 0 // too small for a global judgement
	}
	// No exclusions here: a healthy collector peer appears on all of its
	// own paths but keeps its global presence, so the vanished test below
	// rejects it; a failing tier-1 that is itself a vantage must stay
	// eligible.
	min := int(0.6 * float64(total))
	if float64(min) < 0.6*float64(total) {
		min++
	}
	var cands []bgp.ASN
	for a, n := range count {
		if n >= min {
			cands = append(cands, a)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if count[cands[i]] != count[cands[j]] {
			return count[cands[i]] > count[cands[j]]
		}
		return cands[i] < cands[j]
	})
	for _, z := range cands {
		if inv.ps.pathsContaining[z] < count[z] {
			return z
		}
	}
	return 0
}

// groupResult is the outcome of classifying one per-PoP signal group.
type groupResult struct {
	group *popGroup
	inc   Incident
	// popLevel marks a PoP-level classification whose (group, epicenter)
	// continues into collateral folding and outage opening.
	popLevel bool
	// epicenter is the disambiguated epicenter of a PoP-level group (zero
	// when unresolved).
	epicenter colo.PoP
}

// classifyGroup runs the Section 4.3 classification flowchart over one
// per-PoP signal group. It is pure with respect to the investigator — it
// only reads the shard's bin-close state, the colocation map and
// the org table; the incident log and hooks are investigate's.
func (inv *investigator) classifyGroup(at time.Time, pop colo.PoP, sigs []signal, binCommon bgp.ASN) groupResult {
	g := buildGroup(pop, sigs)
	if inv.cfg.Tracing {
		g.trace = newChapter(at, pop, sigs, inv.ps.stableTotal(pop))
	}
	affected := g.affectedASes()
	inc := Incident{
		Time: at, SignalPoP: pop, PoP: pop,
		AffectedASes: affected, Links: len(g.links), Paths: g.paths,
	}
	r := groupResult{group: g}
	switch {
	case binCommon != 0:
		// One vanished AS explains the whole bin's churn.
		inc.Kind = IncidentAS
		inc.CommonAS = binCommon
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "classify",
				Outcome: fmt.Sprintf("AS-level: vanished AS%d explains the whole bin's churn", binCommon)})
		}
	case len(affected) <= inv.cfg.MinInvestigationASes:
		inc.Kind = IncidentLink
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "classify",
				Outcome: fmt.Sprintf("link-level: only %d affected ASes (investigation threshold %d)",
					len(affected), inv.cfg.MinInvestigationASes)})
		}
	case g.commonAS() != 0:
		inc.Kind = IncidentAS
		inc.CommonAS = g.commonAS()
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "classify",
				Outcome: fmt.Sprintf("AS-level: AS%d is common to every affected link", inc.CommonAS)})
		}
	case inv.vanishedCommonAS(g) != 0:
		// Every diverted route used to traverse one common AS and
		// that AS lost (nearly) all of its monitored paths globally:
		// its disappearance, not the tagged PoP, explains the signal.
		inc.Kind = IncidentAS
		inc.CommonAS = inv.vanishedCommonAS(g)
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "classify",
				Outcome: fmt.Sprintf("AS-level: AS%d on nearly every diverted path and globally vanished", inc.CommonAS)})
		}
	case inv.commonOrgEverywhere(g):
		inc.Kind = IncidentOperator
		g.trace.step(TraceStep{Stage: "classify",
			Outcome: "operator-level: one organization touches every affected link"})
	case inv.distinctNonSiblings(g.nears) >= inv.cfg.MinDisjointEnds &&
		inv.distinctNonSiblings(g.fars) >= inv.cfg.MinDisjointEnds &&
		inv.aggregateFraction(g) >= inv.cfg.Tfail/2:
		// The aggregate gate keeps collateral dribble (a few rerouted
		// paths that merely *crossed* the PoP) from masquerading as a
		// PoP outage, while staying below Tfail itself so that partial
		// outages of regional ASes — the reason Section 4.2 groups per
		// AS in the first place — still qualify.
		inc.Kind = IncidentPoP
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "classify",
				Outcome: fmt.Sprintf("PoP-level: %d near / %d far disjoint organizations, aggregate fraction %.2f",
					inv.distinctNonSiblings(g.nears), inv.distinctNonSiblings(g.fars), inv.aggregateFraction(g))})
		}
		epicenter := inv.disambiguate(g, at)
		inc.PoP = epicenter
		r.popLevel = true
		r.epicenter = epicenter
	default:
		// Too few disjoint ends for PoP-level, broader than one AS:
		// conservative AS-level classification.
		inc.Kind = IncidentAS
		g.trace.step(TraceStep{Stage: "classify",
			Outcome: "AS-level fallback: too few disjoint ends for a PoP-level inference"})
	}
	r.inc = inc
	if g.trace != nil {
		g.trace.Kind = inc.Kind.String()
		if r.popLevel {
			g.trace.Epicenter = r.epicenter
		}
	}
	return r
}

// investigate classifies this bin's signals and feeds PoP-level epicenters
// to the outage tracker (Sections 4.3's flowchart).
func (inv *investigator) investigate(at time.Time, signals []signal) {
	groups := map[colo.PoP][]signal{}
	var order []colo.PoP
	for _, s := range signals {
		if _, ok := groups[s.pop]; !ok {
			order = append(order, s.pop)
		}
		groups[s.pop] = append(groups[s.pop], s)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Kind != order[j].Kind {
			return order[i].Kind < order[j].Kind
		}
		return order[i].ID < order[j].ID
	})

	type resolved struct {
		group     *popGroup
		epicenter colo.PoP
	}
	var popLevel []resolved

	binCommon := inv.binVanishedAS(signals)

	// Classify every per-PoP group in group order (the groups are
	// independent until the folding below), log the incident, fire hooks,
	// and collect the PoP-level groups.
	for _, pop := range order {
		r := inv.classifyGroup(at, pop, groups[pop], binCommon)
		inv.incidents = append(inv.incidents, r.inc)
		if inv.hooks.IncidentClassified != nil {
			inv.hooks.IncidentClassified(r.inc)
		}
		if r.popLevel {
			popLevel = append(popLevel, resolved{group: r.group, epicenter: r.epicenter})
		}
	}

	// Collateral folding: a diverted path is usually tagged at several
	// PoPs, so one physical failure raises signals at every tagged PoP the
	// rerouted paths abandoned. Resolved epicenters claim paths in order
	// of localization specificity (facility, then IXP, then city), larger
	// groups first; a group whose paths mostly belong to an
	// already-claimed epicenter is collateral of that epicenter
	// (Section 4.3's correlation of signals from multiple PoPs).
	if len(popLevel) > 1 {
		rank := func(p colo.PoP) int {
			switch p.Kind {
			case colo.PoPFacility:
				return 0
			case colo.PoPIXP:
				return 1
			case colo.PoPCity:
				return 2
			default:
				return 3 // unresolved epicenters claim nothing
			}
		}
		sort.SliceStable(popLevel, func(i, j int) bool {
			ri, rj := rank(popLevel[i].epicenter), rank(popLevel[j].epicenter)
			if ri != rj {
				return ri < rj
			}
			return popLevel[i].group.paths > popLevel[j].group.paths
		})
		claimed := map[PathKey]colo.PoP{} // path -> dominating epicenter
		for i := range popLevel {
			r := &popLevel[i]
			keys := r.group.pathKeys()
			byEpi := map[colo.PoP]int{}
			for k := range keys {
				if epi, ok := claimed[k]; ok {
					byEpi[epi]++
				}
			}
			var domEpi colo.PoP
			domN := 0
			for epi, n := range byEpi {
				if n > domN || (n == domN && (epi.Kind < domEpi.Kind ||
					(epi.Kind == domEpi.Kind && epi.ID < domEpi.ID))) {
					domEpi, domN = epi, n
				}
			}
			if domN*4 >= len(keys)*3 && domEpi.IsValid() {
				// ≥75% of this group's paths already belong to a more
				// specific or larger signal: collateral, not a separate
				// outage.
				if r.group.trace != nil {
					r.group.trace.Fold = &TraceFold{Into: domEpi, SharedPaths: domN, TotalPaths: len(keys)}
				}
				r.epicenter = domEpi
				continue
			}
			if !r.epicenter.IsValid() {
				continue
			}
			for k := range keys {
				if _, ok := claimed[k]; !ok {
					claimed[k] = r.epicenter
				}
			}
		}
	}

	if len(popLevel) == 0 {
		return
	}

	// City abstraction: multiple distinct epicenters in one city within a
	// bin collapse to a city-level incident. Unresolved groups are binned
	// by their signal PoP's city so a resolved sibling signal can absorb
	// them.
	byCity := map[geo.CityID][]resolved{}
	for _, r := range popLevel {
		city := inv.cmap.CityOf(r.epicenter)
		if !r.epicenter.IsValid() {
			city = inv.cmap.CityOf(r.group.pop)
		}
		byCity[city] = append(byCity[city], r)
	}
	cityIDs := make([]geo.CityID, 0, len(byCity))
	for c := range byCity {
		cityIDs = append(cityIDs, c)
	}
	sort.Slice(cityIDs, func(i, j int) bool { return cityIDs[i] < cityIDs[j] })

	for _, cityID := range cityIDs {
		rs := byCity[cityID]
		// Distinct facility/IXP epicenters in this city. City-kind
		// epicenters are unrefined city-granularity signals: they are
		// consistent with whatever infrastructure epicenter the other
		// signals isolated and do not count as separate convergences.
		infra := map[colo.PoP]bool{}
		// strongFacility marks facility epicenters derived from direct
		// facility/IXP signals (not just refined city signals).
		strongFacility := map[colo.PoP]bool{}
		for _, r := range rs {
			if r.epicenter.Kind == colo.PoPFacility || r.epicenter.Kind == colo.PoPIXP {
				infra[r.epicenter] = true
				if r.epicenter.Kind == colo.PoPFacility && r.group.pop.Kind != colo.PoPCity {
					strongFacility[r.epicenter] = true
				}
			}
		}
		// Fabric reconciliation (Figure 2(b)): an IXP epicenter whose
		// fabric extends into a concurrently-failed facility epicenter is
		// explained by that facility — the IXP signal is collateral. Only
		// facility epicenters backed by direct facility/IXP signals may
		// absorb an IXP epicenter.
		for pop := range infra {
			if pop.Kind != colo.PoPIXP {
				continue
			}
			if ixp, ok := inv.cmap.IXP(colo.IXPID(pop.ID)); ok {
				for _, fid := range ixp.Facilities {
					if strongFacility[colo.FacilityPoP(fid)] {
						delete(infra, pop)
						break
					}
				}
			}
		}
		switch {
		case len(infra) > 1 && cityID != geo.NoCity:
			// Multiple infrastructures converged: abstract to city level.
			city := colo.CityPoP(cityID)
			for _, r := range rs {
				inv.openOutageFor(at, city, r.group)
			}
		case len(infra) == 1:
			// One infrastructure epicenter explains the city's signals.
			var epicenter colo.PoP
			for p := range infra {
				epicenter = p
			}
			for _, r := range rs {
				inv.openOutageFor(at, epicenter, r.group)
			}
		default:
			for _, r := range rs {
				inv.openOutageFor(at, r.epicenter, r.group)
			}
		}
	}
}

// openOutageFor hands the signal to the duration tracker, or, with a
// prober wired, parks it behind a probe campaign that confirms the
// epicenter or picks it among the recorded candidates. Unresolved
// epicenters (disambiguation did not converge to a specific
// infrastructure) without candidates to probe are dropped — Kepler never
// reports a location it could not corroborate; the signal remains visible
// in the incident log — unless Config.ReportUnresolved opens them at the
// signal PoP.
func (inv *investigator) openOutageFor(at time.Time, epicenter colo.PoP, g *popGroup) {
	switch {
	case inv.prober != nil && epicenter.IsValid():
		// Confirmation campaign: the epicenter is known but unvalidated.
		inv.park(at, epicenter, []colo.PoP{epicenter}, g)
		return
	case inv.prober != nil && len(g.probeCands) > 0:
		// Disambiguation campaign over the recorded candidates.
		inv.park(at, colo.PoP{}, g.probeCands, g)
		return
	case epicenter.IsValid():
		// Localized, with no prober to confirm it: opens unvalidated.
	case inv.cfg.ReportUnresolved && inv.prober == nil:
		epicenter = g.pop
	default:
		return
	}
	if g.trace != nil && epicenter != g.trace.Epicenter {
		// Collateral folding or city abstraction moved the group off the
		// epicenter its own disambiguation produced.
		g.trace.step(TraceStep{Stage: "reattribution", Chosen: epicenter,
			Outcome: "group attributed to a concurrent epicenter by collateral folding or city abstraction"})
		g.trace.Epicenter = epicenter
	}
	existed := inv.tracker.opened[epicenter] != nil
	inv.tracker.observe(at, epicenter, g, false, false)
	if o := inv.tracker.opened[epicenter]; o != nil {
		inv.traceAppend(o, g.trace)
		switch {
		case !existed && inv.hooks.OutageOpened != nil:
			inv.hooks.OutageOpened(o.status())
		case existed && inv.hooks.OutageUpdated != nil:
			inv.hooks.OutageUpdated(o.status())
		}
	}
}

// disambiguate locates the epicenter of a PoP-level signal group
// (Section 4.3, "Disambiguation of Outage Signals" and "Increasing Signal
// Resolution").
func (inv *investigator) disambiguate(g *popGroup, at time.Time) colo.PoP {
	switch g.pop.Kind {
	case colo.PoPFacility:
		return inv.disambiguateFacility(g, at)
	case colo.PoPIXP:
		return inv.refineIXP(g, at)
	case colo.PoPCity:
		return inv.refineCity(g, at)
	default:
		return g.pop
	}
}

// facilitiesOfAffected returns facilities where at least minShare of the
// group's affected ASes have presence, most-shared first, capped — the
// "facilities where the affected far-end ASes have a presence" candidate
// set of Section 4.3.
func (inv *investigator) facilitiesOfAffected(g *popGroup, minShare float64, cap int) []colo.FacilityID {
	affected := g.affectedASes()
	if len(affected) == 0 {
		return nil
	}
	count := map[colo.FacilityID]int{}
	for _, a := range affected {
		for _, fid := range inv.cmap.FacilitiesOf(a) {
			count[fid]++
		}
	}
	min := int(minShare * float64(len(affected)))
	if min < 2 {
		min = 2
	}
	var out []colo.FacilityID
	for fid, n := range count {
		if n >= min {
			out = append(out, fid)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if count[out[i]] != count[out[j]] {
			return count[out[i]] > count[out[j]]
		}
		return out[i] < out[j]
	})
	if len(out) > cap {
		out = out[:cap]
	}
	return out
}

// affectedFractionWithFarAt computes diverted/stable over the group's
// signal PoP, restricted to paths whose far end is colocated at facility f.
// Each diverted (path, link) pair counts once: a path that oscillates away
// from the PoP several times within one bin records a divert event per
// departure, and double-counting those would inflate the affected fraction
// past the stable baseline it is compared against.
func (inv *investigator) affectedFractionWithFarAt(g *popGroup, f colo.FacilityID) (float64, int) {
	stableTotal, divertedTotal := 0, 0
	for _, set := range inv.ps.stable[g.pop] {
		for _, ends := range set {
			if ends.far != 0 && inv.cmap.AtFacility(ends.far, f) {
				stableTotal++
			}
		}
	}
	type pathLink struct {
		key  PathKey
		ends popEnd
	}
	seen := make(map[pathLink]bool, g.paths)
	for _, s := range g.signals {
		for _, r := range s.diverted {
			if r.ends.far == 0 || !inv.cmap.AtFacility(r.ends.far, f) {
				continue
			}
			pl := pathLink{key: r.key, ends: r.ends}
			if seen[pl] {
				continue
			}
			seen[pl] = true
			divertedTotal++
		}
	}
	if stableTotal == 0 {
		return 0, 0
	}
	return float64(divertedTotal) / float64(stableTotal), stableTotal
}

// disambiguateFacility implements the near-end-first walk of Section 4.3:
// if the paths with far ends colocated in the signalled facility are
// (almost) all affected, the near-end facility is the epicenter; otherwise
// candidate far-end facilities are examined; otherwise common IXPs.
func (inv *investigator) disambiguateFacility(g *popGroup, at time.Time) colo.PoP {
	f := colo.FacilityID(g.pop.ID)
	if frac, n := inv.affectedFractionWithFarAt(g, f); n > 0 && frac >= inv.cfg.ColocationMargin {
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "near-facility-margin", Chosen: g.pop,
				Outcome: fmt.Sprintf("%.0f%% of %d colocated far-end paths affected (margin %.0f%%): near facility is the epicenter",
					frac*100, n, inv.cfg.ColocationMargin*100)})
		}
		return g.pop
	} else if g.trace != nil {
		g.trace.step(TraceStep{Stage: "near-facility-margin",
			Outcome: fmt.Sprintf("%.0f%% of %d colocated far-end paths affected, below the %.0f%% margin",
				frac*100, n, inv.cfg.ColocationMargin*100)})
	}

	// Candidate facilities of the affected far ends: accept the one that
	// hosts every affected far end and whose colocated paths are all
	// affected.
	candSet := map[colo.FacilityID]int{}
	for far := range g.fars {
		for _, fid := range inv.cmap.FacilitiesOf(far) {
			candSet[fid]++
		}
	}
	var cands []colo.FacilityID
	for fid, n := range candSet {
		if fid != f && n == len(g.fars) && len(g.fars) > 0 {
			cands = append(cands, fid)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	var elim []colo.PoP
	for _, fid := range cands {
		if frac, n := inv.affectedFractionWithFarAt(g, fid); n > 0 && frac >= inv.cfg.ColocationMargin {
			chosen := colo.FacilityPoP(fid)
			if g.trace != nil {
				g.trace.step(TraceStep{Stage: "far-facility-candidates",
					Candidates: facilityPoPs(cands), Eliminated: elim, Chosen: chosen,
					Outcome: fmt.Sprintf("%.0f%% of %d paths colocated at the candidate affected: far-end facility is the epicenter",
						frac*100, n)})
			}
			return chosen
		}
		if g.trace != nil {
			elim = append(elim, colo.FacilityPoP(fid))
		}
	}
	if g.trace != nil && len(cands) > 0 {
		g.trace.step(TraceStep{Stage: "far-facility-candidates",
			Candidates: facilityPoPs(cands), Eliminated: elim,
			Outcome: "no candidate facility hosting every affected far end met the colocation margin"})
	}

	// Partial-outage consistency: a subset of the facility failed, so not
	// all colocated paths diverted — but every diverted path's far end
	// must still be colocated in the facility.
	if inv.aggregateFraction(g) >= 2*inv.cfg.Tfail {
		consistent, total := 0, 0
		for _, s := range g.signals {
			for _, r := range s.diverted {
				if r.ends.far == 0 {
					continue
				}
				total++
				if inv.cmap.AtFacility(r.ends.far, f) {
					consistent++
				}
			}
		}
		if total > 0 && float64(consistent)/float64(total) >= inv.cfg.ColocationMargin {
			if g.trace != nil {
				g.trace.step(TraceStep{Stage: "partial-consistency", Chosen: g.pop,
					Outcome: fmt.Sprintf("%d of %d diverted far ends colocated in the facility: consistent partial outage",
						consistent, total)})
			}
			return g.pop
		}
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "partial-consistency",
				Outcome: fmt.Sprintf("%d of %d diverted far ends colocated in the facility, below the margin",
					consistent, total)})
		}
	}

	// IXP stage: a common IXP of every affected link.
	var commonIXPs []colo.IXPID
	first := true
	for l := range g.links {
		ixs := inv.cmap.CommonIXPs(l.near, l.far)
		if first {
			commonIXPs = ixs
			first = false
			continue
		}
		commonIXPs = intersectIXPs(commonIXPs, ixs)
		if len(commonIXPs) == 0 {
			break
		}
	}
	if len(commonIXPs) == 1 {
		chosen := colo.IXPPoP(commonIXPs[0])
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "common-ixp", Chosen: chosen,
				Outcome: "exactly one IXP is common to every affected link"})
		}
		return chosen
	}
	if g.trace != nil {
		g.trace.step(TraceStep{Stage: "common-ixp",
			Candidates: ixpPoPs(commonIXPs),
			Outcome:    fmt.Sprintf("%d IXPs common to every affected link: no unique exchange", len(commonIXPs))})
	}
	// Unresolved by colocation evidence (common for facilities whose
	// tagged links are tethered transit customers invisible to the map):
	// probe the signalled facility and the affected ASes' shared
	// facilities.
	probes := []colo.PoP{g.pop}
	for _, fid := range inv.facilitiesOfAffected(g, 0.5, 8) {
		if fid != f {
			probes = append(probes, colo.FacilityPoP(fid))
		}
	}
	return inv.resolveByProbe(at, g, probes)
}

// aggregateFraction is the share of the PoP's stable paths the group
// diverted — the bin-level fraction of Section 4.2 before per-AS grouping.
func (inv *investigator) aggregateFraction(g *popGroup) float64 {
	total := inv.ps.stableTotal(g.pop)
	if total == 0 {
		return 0
	}
	return float64(g.paths) / float64(total)
}

// Exclusive-membership scoring: overlapping tenancy (one AS in several
// candidate facilities) makes raw membership fractions indecisive, so
// candidates are compared on their *exclusive* members — ASes present in
// exactly one candidate. The epicenter's exclusive members are nearly all
// affected; other candidates' exclusive members are nearly all fine.
const (
	exclusiveHit  = 0.60 // min affected share of the winner's exclusive members
	exclusiveMiss = 0.30 // max affected share of any other candidate's
)

// exclusiveBest returns the index of the single candidate whose exclusive
// member set is predominantly affected, or -1.
func exclusiveBest(affected []bgp.ASN, memberSets [][]bgp.ASN) int {
	count := map[bgp.ASN]int{}
	for _, set := range memberSets {
		for _, a := range set {
			count[a]++
		}
	}
	affectedSet := map[bgp.ASN]bool{}
	for _, a := range affected {
		affectedSet[a] = true
	}
	winner := -1
	for i, set := range memberSets {
		excl, hit := 0, 0
		for _, a := range set {
			if count[a] != 1 {
				continue
			}
			excl++
			if affectedSet[a] {
				hit++
			}
		}
		if excl == 0 {
			continue
		}
		share := float64(hit) / float64(excl)
		switch {
		case share >= exclusiveHit:
			if winner >= 0 {
				return -1 // two hot candidates: ambiguous
			}
			winner = i
		case share > exclusiveMiss:
			return -1 // lukewarm candidate muddies the picture
		}
	}
	return winner
}

// refineIXP raises the resolution of an IXP-tagged signal: when the
// exclusively-resident members of exactly one fabric facility are affected
// while other facilities' members are fine, the outage is the facility's,
// not the exchange's (Figure 2(b)). A full IXP outage affects members at
// every fabric facility and therefore stays IXP-level.
func (inv *investigator) refineIXP(g *popGroup, at time.Time) colo.PoP {
	ix := colo.IXPID(g.pop.ID)
	ixp, ok := inv.cmap.IXP(ix)
	if !ok || len(ixp.Facilities) < 2 {
		return g.pop
	}
	memberSets := make([][]bgp.ASN, len(ixp.Facilities))
	for i, fid := range ixp.Facilities {
		if f, ok := inv.cmap.Facility(fid); ok {
			memberSets[i] = f.Members
		}
	}
	idx := exclusiveBest(g.affectedASes(), memberSets)
	if idx >= 0 {
		chosen := colo.FacilityPoP(ixp.Facilities[idx])
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "exclusive-membership",
				Candidates: facilityPoPs(ixp.Facilities), Chosen: chosen,
				Outcome: "exclusive members of exactly one fabric facility are predominantly affected"})
		}
		return chosen
	}
	if g.trace != nil {
		g.trace.step(TraceStep{Stage: "exclusive-membership",
			Candidates: facilityPoPs(ixp.Facilities),
			Outcome:    "no single fabric facility's exclusive members explain the signal"})
	}
	// No single facility explains the signal. A genuine exchange-wide
	// outage diverts most of the IXP's monitored paths *and* the far ends
	// of the dead links are the exchange's own members; collateral signals
	// (rerouted paths that merely crossed the exchange) fail one of the
	// two and stay unresolved.
	if inv.aggregateFraction(g) >= 0.5 &&
		inv.farConsistency(g, func(a bgp.ASN) bool { return inv.cmap.AtIXP(a, ix) }) >= inv.cfg.ColocationMargin {
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "ixp-wide", Chosen: g.pop,
				Outcome: fmt.Sprintf("aggregate fraction %.2f with member-consistent far ends: exchange-wide outage",
					inv.aggregateFraction(g))})
		}
		return g.pop
	}
	if g.trace != nil {
		g.trace.step(TraceStep{Stage: "ixp-wide",
			Outcome: fmt.Sprintf("aggregate fraction %.2f / far-end member consistency %.2f below the exchange-wide bar",
				inv.aggregateFraction(g),
				inv.farConsistency(g, func(a bgp.ASN) bool { return inv.cmap.AtIXP(a, ix) }))})
	}
	// Probe the exchange, its fabric facilities, and the facilities where
	// the affected members concentrate — a collateral IXP signal often
	// points at a building that merely sat on the rerouted corridor.
	cands := []colo.PoP{g.pop}
	seenFac := map[colo.FacilityID]bool{}
	for _, fid := range ixp.Facilities {
		cands = append(cands, colo.FacilityPoP(fid))
		seenFac[fid] = true
	}
	for _, fid := range inv.facilitiesOfAffected(g, 0.5, 8) {
		if !seenFac[fid] {
			cands = append(cands, colo.FacilityPoP(fid))
		}
	}
	return inv.resolveByProbe(at, g, cands)
}

// farConsistency is the fraction of diverted far ends satisfying member.
func (inv *investigator) farConsistency(g *popGroup, member func(bgp.ASN) bool) float64 {
	total, hit := 0, 0
	for _, s := range g.signals {
		for _, r := range s.diverted {
			if r.ends.far == 0 {
				continue
			}
			total++
			if member(r.ends.far) {
				hit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// refineCity raises the resolution of a city-tagged signal to a facility or
// IXP in that city when the affected/unaffected split isolates exactly one
// (Section 4.3: city signals check facilities first, then IXPs).
func (inv *investigator) refineCity(g *popGroup, at time.Time) colo.PoP {
	city := geo.CityID(g.pop.ID)
	affected := g.affectedASes()
	if len(affected) == 0 {
		return g.pop
	}
	// Candidates are every facility and IXP in the city, compared on
	// exclusive membership: IXP remote peers are exclusive to the IXP,
	// PNI-only tenants are exclusive to their building, so a full IXP
	// outage and a building outage light up different exclusive sets.
	var cands []colo.PoP
	var memberSets [][]bgp.ASN
	for _, fid := range inv.cmap.FacilitiesInCity(city) {
		cands = append(cands, colo.FacilityPoP(fid))
		if f, ok := inv.cmap.Facility(fid); ok {
			memberSets = append(memberSets, f.Members)
		} else {
			memberSets = append(memberSets, nil)
		}
	}
	for _, ix := range inv.cmap.IXPsInCity(city) {
		cands = append(cands, colo.IXPPoP(ix))
		if x, ok := inv.cmap.IXP(ix); ok {
			memberSets = append(memberSets, x.Members)
		} else {
			memberSets = append(memberSets, nil)
		}
	}
	idx := exclusiveBest(affected, memberSets)
	if idx >= 0 {
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "exclusive-membership",
				Candidates: popSliceSorted(cands), Chosen: cands[idx],
				Outcome: "exclusive members of exactly one city infrastructure are predominantly affected"})
		}
		return cands[idx]
	}
	if g.trace != nil {
		g.trace.step(TraceStep{Stage: "exclusive-membership",
			Candidates: popSliceSorted(cands),
			Outcome:    "no single facility or IXP in the city stands out by exclusive membership"})
	}
	// No single infrastructure stands out: a genuine city-wide incident
	// moves most of the city's monitored paths and kills links whose far
	// ends reside in the city; a remote incident that merely rerouted
	// paths away from the city fails the far-end test.
	inCity := func(a bgp.ASN) bool {
		for _, fid := range inv.cmap.FacilitiesInCity(city) {
			if inv.cmap.AtFacility(a, fid) {
				return true
			}
		}
		for _, ix := range inv.cmap.IXPsInCity(city) {
			if inv.cmap.AtIXP(a, ix) {
				return true
			}
		}
		return false
	}
	if inv.aggregateFraction(g) >= 0.5 && inv.farConsistency(g, inCity) >= inv.cfg.ColocationMargin {
		if g.trace != nil {
			g.trace.step(TraceStep{Stage: "city-wide", Chosen: g.pop,
				Outcome: fmt.Sprintf("aggregate fraction %.2f with city-resident far ends: city-wide incident",
					inv.aggregateFraction(g))})
		}
		return g.pop
	}
	if g.trace != nil {
		g.trace.step(TraceStep{Stage: "city-wide",
			Outcome: fmt.Sprintf("aggregate fraction %.2f / far-end city consistency %.2f below the city-wide bar",
				inv.aggregateFraction(g), inv.farConsistency(g, inCity))})
	}
	// Probe candidates hosting at least one affected AS: a genuine
	// building or exchange outage confirms uniquely; collateral signals
	// (paths that merely crossed the city) confirm nowhere.
	affectedSet := map[bgp.ASN]bool{}
	for _, a := range affected {
		affectedSet[a] = true
	}
	var probes []colo.PoP
	for i, cand := range cands {
		hasAffected := false
		for _, m := range memberSets[i] {
			if affectedSet[m] {
				hasAffected = true
				break
			}
		}
		if hasAffected {
			probes = append(probes, cand)
		}
	}
	const maxProbes = 16
	if len(probes) > maxProbes {
		probes = probes[:maxProbes]
	}
	return inv.resolveByProbe(at, g, probes)
}

func intersectIXPs(a, b []colo.IXPID) []colo.IXPID {
	set := map[colo.IXPID]bool{}
	for _, x := range b {
		set[x] = true
	}
	var out []colo.IXPID
	for _, x := range a {
		if set[x] {
			out = append(out, x)
		}
	}
	return out
}
