// Package topology generates the synthetic Internet Kepler is evaluated on:
// autonomous systems of several tiers, colocation facilities, IXPs with
// route servers and multi-facility switching fabrics, and the four peering
// flavors of Section 2 — private interconnects (PNI), public bilateral
// peering, multilateral peering over route servers, and remote peering via
// layer-2 carriers. Every interconnection is bound to the physical
// infrastructure that carries it, which is exactly the property the paper
// exploits: a facility or IXP failure takes down a *set* of links spanning
// many AS pairs.
//
// The generator is deterministic for a given Config (seeded PRNG, sorted
// iteration everywhere), so experiments and tests are reproducible.
package topology

import (
	"fmt"
	"net/netip"

	"kepler/internal/as2org"
	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/geo"
	"kepler/internal/registry"
)

// ASType is the role of an AS in the hierarchy.
type ASType uint8

// AS roles.
const (
	Tier1 ASType = iota
	Tier2
	Content
	Stub
)

// String names the role.
func (t ASType) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	case Content:
		return "content"
	case Stub:
		return "stub"
	default:
		return "unknown"
	}
}

// IXPMembership records one AS's port at one IXP.
type IXPMembership struct {
	IXP          colo.IXPID
	PortFacility colo.FacilityID // fabric facility terminating the port
	Remote       bool            // reached via a layer-2 carrier from afar
	ViaRS        bool            // uses the route server (multilateral)
}

// AS is one autonomous system.
type AS struct {
	ASN      bgp.ASN
	Type     ASType
	Name     string
	OrgName  string
	HomeCity geo.CityID

	Prefixes  []netip.Prefix // originated IPv4 prefixes
	Prefixes6 []netip.Prefix // originated IPv6 prefixes

	Facilities  []colo.FacilityID // colocation presence
	Memberships []IXPMembership

	// UsesCommunities: the AS tags ingress points with location
	// communities. Documents: it also publishes its scheme (minable).
	UsesCommunities bool
	Documents       bool
	// TagsIPv6: the AS also tags its IPv6 routes. Many operators do not
	// (the paper: "ISPs still focus less on optimizing IPv6 traffic
	// flows"), which is why IPv6 community coverage trails IPv4.
	TagsIPv6 bool
	// StripsForeign: the AS scrubs communities attached by other networks
	// when re-announcing routes — common boundary hygiene that limits how
	// far location communities propagate and bounds Kepler's coverage to
	// about half of all paths (Section 5.2).
	StripsForeign bool
	// Granularity is the PoP kind the AS encodes: facility-level schemes
	// also tag IXP ingresses at IXP granularity; city-level schemes tag
	// everything at city granularity (the majority case per Section 3.3).
	Granularity colo.PoPKind
}

// Rel is the business relationship on a link.
type Rel int8

// Relationships: on a RelC2P link A is the customer and B the provider.
const (
	RelC2P Rel = -1
	RelP2P Rel = 0
)

// LinkKind is the physical/commercial flavor of an interconnect.
type LinkKind uint8

// Link kinds, in decreasing selection preference (operators prefer private
// interconnects over public, and local ports over remote ones).
const (
	PNI LinkKind = iota
	PublicBilateral
	Multilateral
	RemotePeering
)

// String names the link kind.
func (k LinkKind) String() string {
	switch k {
	case PNI:
		return "pni"
	case PublicBilateral:
		return "bilateral"
	case Multilateral:
		return "multilateral"
	case RemotePeering:
		return "remote"
	default:
		return "unknown"
	}
}

// Interconnect is one physical adjacency between two ASes, bound to the
// infrastructure that carries it.
type Interconnect struct {
	ID   int
	A, B bgp.ASN
	Rel  Rel // RelC2P: A is customer of B
	Kind LinkKind

	// Facility is set for PNI links: the building housing the cross-connect.
	Facility colo.FacilityID
	// IXP is set for public peering links (bilateral, multilateral, remote).
	IXP colo.IXPID
	// AFac/BFac are the fabric facilities terminating each side's IXP port
	// (zero when unknown). A facility outage severs every port it terminates.
	AFac, BFac colo.FacilityID
}

// Peer returns the other endpoint.
func (l *Interconnect) Peer(asn bgp.ASN) bgp.ASN {
	if l.A == asn {
		return l.B
	}
	return l.A
}

// Involves reports whether asn is an endpoint.
func (l *Interconnect) Involves(asn bgp.ASN) bool { return l.A == asn || l.B == asn }

// IngressPoP returns the physical PoP at which asn receives routes over
// this link, at the granularity the AS's community scheme uses. Facility-
// granularity schemes tag PNIs with the building and IXP peerings with the
// IXP; city schemes tag the city of the ingress.
func (l *Interconnect) IngressPoP(asn bgp.ASN, gran colo.PoPKind, cmap *colo.Map) colo.PoP {
	switch gran {
	case colo.PoPCity:
		var city geo.CityID
		if l.Facility != 0 {
			city = cmap.CityOf(colo.FacilityPoP(l.Facility))
		} else if l.IXP != 0 {
			city = cmap.CityOf(colo.IXPPoP(l.IXP))
		}
		if city == geo.NoCity {
			return colo.PoP{}
		}
		return colo.CityPoP(city)
	default:
		if l.Facility != 0 {
			return colo.FacilityPoP(l.Facility)
		}
		if l.IXP != 0 {
			return colo.IXPPoP(l.IXP)
		}
		return colo.PoP{}
	}
}

// PortFacility returns the fabric facility terminating asn's side of an
// IXP link (zero for PNIs or unknown ports).
func (l *Interconnect) PortFacility(asn bgp.ASN) colo.FacilityID {
	switch asn {
	case l.A:
		return l.AFac
	case l.B:
		return l.BFac
	}
	return 0
}

// Collector is one route collector and the ASes feeding it full tables.
type Collector struct {
	Name  string
	Peers []bgp.ASN
}

// World is the generated Internet.
type World struct {
	Cfg Config

	ASes  []*AS // sorted by ASN
	byASN map[bgp.ASN]*AS

	Links      []*Interconnect // ID = index
	linksOf    map[bgp.ASN][]*Interconnect
	originOf   map[netip.Prefix]bgp.ASN
	RSASNs     map[bgp.ASN]colo.IXPID // route-server ASN -> IXP
	rsOf       map[colo.IXPID]bgp.ASN // IXP -> its lowest route-server ASN
	Collectors []Collector

	// Map is the ground-truth colocation map (perfect knowledge); Kepler
	// runs against a noisy rebuild, but link construction and data-plane
	// synthesis use this one.
	Map   *colo.Map
	Truth *registry.GroundTruth
	Geo   *geo.World
}

// AS returns the AS by number.
func (w *World) AS(asn bgp.ASN) (*AS, bool) {
	a, ok := w.byASN[asn]
	return a, ok
}

// LinksOf returns all interconnects involving asn.
func (w *World) LinksOf(asn bgp.ASN) []*Interconnect { return w.linksOf[asn] }

// OriginOf returns the AS originating the prefix.
func (w *World) OriginOf(p netip.Prefix) (bgp.ASN, bool) {
	a, ok := w.originOf[p]
	return a, ok
}

// Registrations renders WHOIS-style org registrations for as2org.
func (w *World) Registrations() []as2org.Registration {
	out := make([]as2org.Registration, 0, len(w.ASes))
	for _, a := range w.ASes {
		country := ""
		if c, ok := w.Geo.City(a.HomeCity); ok {
			country = c.Country
		}
		out = append(out, as2org.Registration{ASN: a.ASN, OrgName: a.OrgName, Country: country})
	}
	return out
}

// SchemeLow derives the deterministic low-16-bit community value an AS
// uses for a given ingress PoP. Offsets keep kinds disjoint: cities from
// 2000, IXPs from 4000, facilities from 51000 (matching the style of real
// schemes like Init7's).
func SchemeLow(p colo.PoP) uint16 {
	switch p.Kind {
	case colo.PoPCity:
		return uint16(2000 + p.ID)
	case colo.PoPIXP:
		return uint16(4000 + p.ID)
	case colo.PoPFacility:
		return uint16(51000 + p.ID)
	default:
		return 0
	}
}

// CommunityFor returns the community asn attaches for ingress PoP p.
func CommunityFor(asn bgp.ASN, p colo.PoP) bgp.Community {
	return bgp.MakeCommunity(uint16(asn), SchemeLow(p))
}

// RSCommunityLow is the low half of route-server redistribution communities
// ("announce to all" tag redistributed to members).
const RSCommunityLow = 3000

// Errors.
var errNoCities = fmt.Errorf("topology: gazetteer has no cities")
