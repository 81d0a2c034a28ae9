package topology

import (
	"net/netip"
	"sort"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/geo"
	"kepler/internal/registry"
)

// NewEmptyWorld creates a world with no ASes or links over an existing
// colocation map, for hand-built scenarios (tests, worked examples such as
// the paper's Figure 2 topology). Populate it with AddAS and Connect.
func NewEmptyWorld(cmap *colo.Map, gw *geo.World) *World {
	return &World{
		byASN:    make(map[bgp.ASN]*AS),
		linksOf:  make(map[bgp.ASN][]*Interconnect),
		originOf: make(map[netip.Prefix]bgp.ASN),
		RSASNs:   make(map[bgp.ASN]colo.IXPID),
		rsOf:     make(map[colo.IXPID]bgp.ASN),
		Map:      cmap,
		Truth:    &registry.GroundTruth{},
		Geo:      gw,
	}
}

// AddAS inserts an AS. Prefix originations are indexed. ASes must be added
// before links referencing them.
func (w *World) AddAS(a *AS) {
	w.ASes = append(w.ASes, a)
	sort.Slice(w.ASes, func(i, j int) bool { return w.ASes[i].ASN < w.ASes[j].ASN })
	w.byASN[a.ASN] = a
	for _, p := range a.Prefixes {
		w.originOf[p] = a.ASN
	}
	for _, p := range a.Prefixes6 {
		w.originOf[p] = a.ASN
	}
}

// Connect adds an interconnect between a and b. For transit links pass
// rel=RelC2P with a as the customer. Returns the created link.
func (w *World) Connect(a, b bgp.ASN, rel Rel, kind LinkKind, fac colo.FacilityID, ixp colo.IXPID, afac, bfac colo.FacilityID) *Interconnect {
	l := &Interconnect{
		ID: len(w.Links), A: a, B: b, Rel: rel, Kind: kind,
		Facility: fac, IXP: ixp, AFac: afac, BFac: bfac,
	}
	w.Links = append(w.Links, l)
	w.linksOf[a] = append(w.linksOf[a], l)
	w.linksOf[b] = append(w.linksOf[b], l)
	return l
}

// RegisterRS declares asn to be the route server of ixp. An IXP with two
// route servers is answered by the lower ASN.
func (w *World) RegisterRS(asn bgp.ASN, ixp colo.IXPID) {
	w.RSASNs[asn] = ixp
	if cur, ok := w.rsOf[ixp]; !ok || asn < cur {
		w.rsOf[ixp] = asn
	}
}

// AddCollector registers a collector with the given vantage peers.
func (w *World) AddCollector(name string, peers ...bgp.ASN) {
	w.Collectors = append(w.Collectors, Collector{Name: name, Peers: peers})
}

// FinishSchemes recomputes ground-truth community schemes after hand-built
// ASes and links are in place.
func (w *World) FinishSchemes() {
	w.Truth.Schemes = nil
	w.buildSchemes()
}
