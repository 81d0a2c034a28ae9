// Package colo models the high-resolution colocation map of Section 3.3:
// which ASes are present in which colocation facilities, which ASes are
// members of which IXPs, and which facilities host parts of which IXP
// switching fabrics. The map is assembled by merging several imperfect data
// sources (PeeringDB-like, DataCenterMap-like, operator websites): facility
// records are unified by building-level address (postcode + country), IXP
// records by website URL and city, exactly as the paper describes, and the
// member lists of unified records are merged to maximize completeness.
//
// The map answers the queries Kepler's signal-investigation module needs:
// common facilities/IXPs of an AS pair, members of a PoP, facilities of an
// IXP fabric, and per-facility trackability (Section 5.2).
package colo

import (
	"fmt"
	"net/netip"
	"sort"

	"kepler/internal/bgp"
	"kepler/internal/geo"
)

// FacilityID identifies a facility in a Map. The zero value is invalid.
type FacilityID uint32

// IXPID identifies an IXP in a Map. The zero value is invalid.
type IXPID uint32

// Address is a building-level postal address. Postcode+Country is the
// merge key for facility records across data sources.
type Address struct {
	Street   string
	Postcode string
	Country  string // ISO 3166-1 alpha-2
}

// Key returns the cross-source facility merge key.
func (a Address) Key() string { return a.Postcode + "/" + a.Country }

// String renders the address single-line.
func (a Address) String() string {
	return fmt.Sprintf("%s, %s %s", a.Street, a.Postcode, a.Country)
}

// Facility is one colocation facility in the merged map.
type Facility struct {
	ID       FacilityID
	Name     string
	AKA      []string // name variants from other sources
	Operator string
	Addr     Address
	City     geo.CityID
	Coord    geo.Coord
	Members  []bgp.ASN // ASes with presence, sorted ascending
	Sources  []string  // data sources that contributed
}

// IXP is one internet exchange point in the merged map.
type IXP struct {
	ID         IXPID
	Name       string
	AKA        []string // name variants from other sources
	URL        string
	City       geo.CityID
	ASNs       []bgp.ASN      // IXP-operated ASNs (route servers, mgmt)
	LANs       []netip.Prefix // peering LAN prefixes
	Members    []bgp.ASN      // member ASes, sorted ascending
	Facilities []FacilityID   // facilities hosting switch fabric
	Sources    []string
}

// PoPKind distinguishes the granularities a PoP reference can take; "PoP"
// in the paper means any of city, facility or IXP.
type PoPKind uint8

// PoP kinds.
const (
	PoPInvalid PoPKind = iota
	PoPCity
	PoPFacility
	PoPIXP
)

// String names the kind.
func (k PoPKind) String() string {
	switch k {
	case PoPCity:
		return "city"
	case PoPFacility:
		return "facility"
	case PoPIXP:
		return "ixp"
	default:
		return "invalid"
	}
}

// PoP is a tagged reference to a city, facility or IXP. PoPs are comparable
// and therefore usable as map keys.
type PoP struct {
	Kind PoPKind
	ID   uint32
}

// CityPoP wraps a city as a PoP.
func CityPoP(id geo.CityID) PoP { return PoP{Kind: PoPCity, ID: uint32(id)} }

// FacilityPoP wraps a facility as a PoP.
func FacilityPoP(id FacilityID) PoP { return PoP{Kind: PoPFacility, ID: uint32(id)} }

// IXPPoP wraps an IXP as a PoP.
func IXPPoP(id IXPID) PoP { return PoP{Kind: PoPIXP, ID: uint32(id)} }

// IsValid reports whether the PoP references anything.
func (p PoP) IsValid() bool { return p.Kind != PoPInvalid && p.ID != 0 }

// String renders e.g. "facility:42".
func (p PoP) String() string { return fmt.Sprintf("%s:%d", p.Kind, p.ID) }

// Map is the merged colocation map.
type Map struct {
	facilities []Facility // index = FacilityID-1
	ixps       []IXP      // index = IXPID-1

	facByASN  map[bgp.ASN][]FacilityID
	ixpByASN  map[bgp.ASN][]IXPID
	facByCity map[geo.CityID][]FacilityID
	ixpByCity map[geo.CityID][]IXPID
	facKey    map[string]FacilityID // address key -> facility
	ixpByASN2 map[bgp.ASN]IXPID     // IXP-operated ASN -> IXP
}

// NumFacilities returns the facility count.
func (m *Map) NumFacilities() int { return len(m.facilities) }

// NumIXPs returns the IXP count.
func (m *Map) NumIXPs() int { return len(m.ixps) }

// Facility returns the facility by ID.
func (m *Map) Facility(id FacilityID) (Facility, bool) {
	if id == 0 || int(id) > len(m.facilities) {
		return Facility{}, false
	}
	return m.facilities[id-1], true
}

// IXP returns the IXP by ID.
func (m *Map) IXP(id IXPID) (IXP, bool) {
	if id == 0 || int(id) > len(m.ixps) {
		return IXP{}, false
	}
	return m.ixps[id-1], true
}

// Facilities returns all facilities in ID order (shared slice; do not
// modify).
func (m *Map) Facilities() []Facility { return m.facilities }

// IXPs returns all IXPs in ID order (shared slice; do not modify).
func (m *Map) IXPs() []IXP { return m.ixps }

// FacilitiesOf returns the facilities where the AS has presence.
func (m *Map) FacilitiesOf(asn bgp.ASN) []FacilityID { return m.facByASN[asn] }

// FacilitiesInCity returns the facilities located in the city.
func (m *Map) FacilitiesInCity(city geo.CityID) []FacilityID { return m.facByCity[city] }

// IXPsInCity returns the IXPs located in the city.
func (m *Map) IXPsInCity(city geo.CityID) []IXPID { return m.ixpByCity[city] }

// IXPByOperatedASN resolves an IXP-operated ASN (e.g. a route server ASN)
// to its IXP.
func (m *Map) IXPByOperatedASN(asn bgp.ASN) (IXPID, bool) {
	id, ok := m.ixpByASN2[asn]
	return id, ok
}

// FacilityByAddress resolves a building address to a facility.
func (m *Map) FacilityByAddress(a Address) (FacilityID, bool) {
	id, ok := m.facKey[a.Key()]
	return id, ok
}

// AtFacility reports whether the AS has presence in the facility.
func (m *Map) AtFacility(asn bgp.ASN, f FacilityID) bool {
	return containsFac(m.facByASN[asn], f)
}

// AtIXP reports whether the AS is a member of the IXP.
func (m *Map) AtIXP(asn bgp.ASN, ix IXPID) bool {
	return containsIXP(m.ixpByASN[asn], ix)
}

// CommonIXPs returns the IXPs both ASes are members of, sorted ascending.
func (m *Map) CommonIXPs(a, b bgp.ASN) []IXPID {
	return intersectIXP(m.ixpByASN[a], m.ixpByASN[b])
}

// CityOf returns the city of a facility- or IXP-PoP, or the city itself.
func (m *Map) CityOf(p PoP) geo.CityID {
	switch p.Kind {
	case PoPCity:
		return geo.CityID(p.ID)
	case PoPFacility:
		if f, ok := m.Facility(FacilityID(p.ID)); ok {
			return f.City
		}
	case PoPIXP:
		if ix, ok := m.IXP(IXPID(p.ID)); ok {
			return ix.City
		}
	}
	return geo.NoCity
}

// MinTrackableMembers is the Section 5.2 threshold: a facility is trackable
// when at least this many of its members can be located through
// communities (3 potential near-ends and 3 potential far-ends).
const MinTrackableMembers = 6

// Trackable reports whether the facility is trackable given the set of
// ASes whose interconnections the community dictionary can locate, and
// returns the number of covered members.
func (m *Map) Trackable(f FacilityID, covered func(bgp.ASN) bool) (bool, int) {
	fac, ok := m.Facility(f)
	if !ok {
		return false, 0
	}
	n := 0
	for _, a := range fac.Members {
		if covered(a) {
			n++
		}
	}
	return n >= MinTrackableMembers, n
}

func containsFac(list []FacilityID, f FacilityID) bool {
	for _, x := range list {
		if x == f {
			return true
		}
	}
	return false
}

func containsIXP(list []IXPID, ix IXPID) bool {
	for _, x := range list {
		if x == ix {
			return true
		}
	}
	return false
}

func intersectIXP(a, b []IXPID) []IXPID {
	var out []IXPID
	for _, x := range a {
		if containsIXP(b, x) {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
