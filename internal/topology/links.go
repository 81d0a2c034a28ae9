package topology

import (
	"math/rand"
	"sort"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/geo"
	"kepler/internal/registry"
)

// linkKey dedups parallel links: one link per (pair, kind, venue).
type linkKey struct {
	a, b bgp.ASN
	kind LinkKind
	fac  colo.FacilityID
	ixp  colo.IXPID
}

func (w *World) addLink(seen map[linkKey]bool, a, b bgp.ASN, rel Rel, kind LinkKind, fac colo.FacilityID, ixp colo.IXPID, afac, bfac colo.FacilityID) *Interconnect {
	if a == b {
		return nil
	}
	ka, kb := a, b
	kfa, kfb := afac, bfac
	krel := rel
	if ka > kb {
		ka, kb = kb, ka
		kfa, kfb = kfb, kfa
		if rel == RelC2P {
			// canonical key keeps A<B; the stored link keeps the
			// customer first, so only the key is reordered.
		}
	}
	key := linkKey{a: ka, b: kb, kind: kind, fac: fac, ixp: ixp}
	if seen[key] {
		return nil
	}
	seen[key] = true
	l := &Interconnect{
		ID: len(w.Links), A: a, B: b, Rel: krel, Kind: kind,
		Facility: fac, IXP: ixp, AFac: afac, BFac: bfac,
	}
	w.Links = append(w.Links, l)
	w.linksOf[a] = append(w.linksOf[a], l)
	w.linksOf[b] = append(w.linksOf[b], l)
	return l
}

// hasTransit reports whether a transit relationship already connects the
// pair (peering alongside transit is excluded to keep policies clean).
func (w *World) hasTransit(a, b bgp.ASN) bool {
	for _, l := range w.linksOf[a] {
		if l.Involves(b) && l.Rel == RelC2P {
			return true
		}
	}
	return false
}

func (w *World) commonFacility(a, b *AS) colo.FacilityID {
	for _, fa := range a.Facilities {
		for _, fb := range b.Facilities {
			if fa == fb {
				return fa
			}
		}
	}
	return 0
}

func (w *World) buildLinks(rng *rand.Rand) {
	seen := make(map[linkKey]bool)

	var tier1s, tier2s, contents, stubs []*AS
	for _, a := range w.ASes {
		switch a.Type {
		case Tier1:
			tier1s = append(tier1s, a)
		case Tier2:
			tier2s = append(tier2s, a)
		case Content:
			contents = append(contents, a)
		case Stub:
			stubs = append(stubs, a)
		}
	}

	// Tier-1 full mesh: settlement-free PNIs at shared facilities.
	for i, a := range tier1s {
		for _, b := range tier1s[i+1:] {
			fac := w.commonFacility(a, b)
			if fac == 0 && len(a.Facilities) > 0 {
				fac = a.Facilities[0] // tethered cross-connect
			}
			w.addLink(seen, a.ASN, b.ASN, RelP2P, PNI, fac, 0, 0, 0)
		}
	}

	pickProviders := func(a *AS, pool []*AS, n int) []*AS {
		if len(pool) == 0 {
			return nil
		}
		idx := rng.Perm(len(pool))
		var out []*AS
		for _, j := range idx {
			if pool[j].ASN == a.ASN {
				continue
			}
			out = append(out, pool[j])
			if len(out) == n {
				break
			}
		}
		return out
	}

	transit := func(cust *AS, prov *AS) {
		fac := w.commonFacility(cust, prov)
		if fac == 0 && len(prov.Facilities) > 0 {
			fac = prov.Facilities[rng.Intn(len(prov.Facilities))]
		}
		w.addLink(seen, cust.ASN, prov.ASN, RelC2P, PNI, fac, 0, 0, 0)
	}

	for _, a := range tier2s {
		for _, p := range pickProviders(a, tier1s, 1+rng.Intn(2)) {
			transit(a, p)
		}
	}
	for _, a := range contents {
		pool := append(append([]*AS{}, tier1s...), tier2s...)
		for _, p := range pickProviders(a, pool, 1+rng.Intn(2)) {
			transit(a, p)
		}
	}
	for _, a := range stubs {
		for _, p := range pickProviders(a, tier2s, 1+rng.Intn(2)) {
			transit(a, p)
		}
		// A few stubs are dual-homed to a tier-1 as well.
		if rng.Float64() < 0.1 {
			for _, p := range pickProviders(a, tier1s, 1) {
				transit(a, p)
			}
		}
	}

	// Public peering at IXPs.
	type port struct {
		asn    bgp.ASN
		fac    colo.FacilityID
		remote bool
		viaRS  bool
	}
	ixpPorts := make(map[colo.IXPID][]port)
	for _, a := range w.ASes {
		for _, mem := range a.Memberships {
			ixpPorts[mem.IXP] = append(ixpPorts[mem.IXP], port{
				asn: a.ASN, fac: mem.PortFacility, remote: mem.Remote, viaRS: mem.ViaRS,
			})
		}
	}
	ixpIDs := make([]colo.IXPID, 0, len(ixpPorts))
	for id := range ixpPorts {
		ixpIDs = append(ixpIDs, id)
	}
	sort.Slice(ixpIDs, func(i, j int) bool { return ixpIDs[i] < ixpIDs[j] })

	for _, ixid := range ixpIDs {
		ports := ixpPorts[ixid]
		sort.Slice(ports, func(i, j int) bool { return ports[i].asn < ports[j].asn })
		for i := 0; i < len(ports); i++ {
			for j := i + 1; j < len(ports); j++ {
				pa, pb := ports[i], ports[j]
				if w.hasTransit(pa.asn, pb.asn) {
					continue
				}
				switch {
				case pa.viaRS && pb.viaRS:
					kind := Multilateral
					if pa.remote || pb.remote {
						kind = RemotePeering
					}
					w.addLink(seen, pa.asn, pb.asn, RelP2P, kind, 0, ixid, pa.fac, pb.fac)
				case rng.Float64() < 0.35:
					kind := PublicBilateral
					if pa.remote || pb.remote {
						kind = RemotePeering
					}
					w.addLink(seen, pa.asn, pb.asn, RelP2P, kind, 0, ixid, pa.fac, pb.fac)
				}
			}
		}
	}

	// Content-to-edge PNIs at shared facilities (the "flattening").
	for _, c := range contents {
		for _, e := range append(append([]*AS{}, tier2s...), stubs...) {
			if rng.Float64() >= 0.08 {
				continue
			}
			if w.hasTransit(c.ASN, e.ASN) {
				continue
			}
			if fac := w.commonFacility(c, e); fac != 0 {
				w.addLink(seen, c.ASN, e.ASN, RelP2P, PNI, fac, 0, 0, 0)
			}
		}
	}
}

var collectorNames = []string{"rrc00", "rrc01", "rrc03", "route-views2", "route-views4", "rrc12"}

func (w *World) buildCollectors(rng *rand.Rand) {
	// Vantage candidates: transit and content ASes, interleaving community
	// users and non-users — collectors peer with whoever volunteers, so
	// roughly half the monitored paths carry location communities
	// (Section 5.2's ~50% coverage).
	var users, nonUsers []bgp.ASN
	for _, a := range w.ASes {
		if a.Type == Tier1 || a.Type == Tier2 || a.Type == Content {
			if a.UsesCommunities {
				users = append(users, a.ASN)
			} else {
				nonUsers = append(nonUsers, a.ASN)
			}
		}
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	sort.Slice(nonUsers, func(i, j int) bool { return nonUsers[i] < nonUsers[j] })
	var candidates []bgp.ASN
	for i := 0; i < len(users) || i < len(nonUsers); i++ {
		if i < len(users) {
			candidates = append(candidates, users[i])
		}
		if i < len(nonUsers) {
			candidates = append(candidates, nonUsers[i])
		}
	}

	n := w.Cfg.Collectors
	if n > len(collectorNames) {
		n = len(collectorNames)
	}
	used := 0
	for i := 0; i < n; i++ {
		c := Collector{Name: collectorNames[i]}
		for v := 0; v < w.Cfg.VantagePerCollector && used < len(candidates); v++ {
			c.Peers = append(c.Peers, candidates[used])
			used++
		}
		if len(c.Peers) == 0 && len(candidates) > 0 {
			c.Peers = append(c.Peers, candidates[rng.Intn(len(candidates))])
		}
		w.Collectors = append(w.Collectors, c)
	}
}

// buildSchemes derives each community-using AS's scheme from its links and
// appends the ground-truth schemes for the registry renderer.
func (w *World) buildSchemes() {
	for _, a := range w.ASes {
		if !a.UsesCommunities {
			continue
		}
		seen := make(map[colo.PoP]bool)
		var entries []registry.SchemeEntry
		for _, l := range w.linksOf[a.ASN] {
			pop := l.IngressPoP(a.ASN, a.Granularity, w.Map)
			if !pop.IsValid() || seen[pop] {
				continue
			}
			seen[pop] = true
			entries = append(entries, registry.SchemeEntry{
				Low:  SchemeLow(pop),
				Kind: pop.Kind,
				Name: w.PoPName(pop),
			})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Low < entries[j].Low })
		w.Truth.Schemes = append(w.Truth.Schemes, registry.SchemeTruth{
			ASN:       a.ASN,
			Documents: a.Documents,
			Entries:   entries,
		})
	}
}

// PoPName renders the human name of a PoP as an operator would write it in
// community documentation.
func (w *World) PoPName(p colo.PoP) string {
	switch p.Kind {
	case colo.PoPFacility:
		if f, ok := w.Map.Facility(colo.FacilityID(p.ID)); ok {
			return f.Name
		}
	case colo.PoPIXP:
		if ix, ok := w.Map.IXP(colo.IXPID(p.ID)); ok {
			return ix.Name
		}
	case colo.PoPCity:
		if c, ok := w.Geo.City(geo.CityID(p.ID)); ok {
			return c.Name
		}
	}
	return ""
}

// IngressCommunity returns the community asn attaches to routes received
// over link l, or ok=false when the AS does not tag or the PoP is unknown.
func (w *World) IngressCommunity(asn bgp.ASN, l *Interconnect) (bgp.Community, colo.PoP, bool) {
	a, ok := w.byASN[asn]
	if !ok || !a.UsesCommunities {
		return bgp.Community{}, colo.PoP{}, false
	}
	pop := l.IngressPoP(asn, a.Granularity, w.Map)
	if !pop.IsValid() {
		return bgp.Community{}, colo.PoP{}, false
	}
	return CommunityFor(asn, pop), pop, true
}

// RSASNOf returns the route-server ASN of the IXP (the lowest, if several
// registered), or 0.
func (w *World) RSASNOf(ixp colo.IXPID) bgp.ASN { return w.rsOf[ixp] }
