// Package geo provides the geographic substrate for Kepler: a world-city
// gazetteer with coordinates, great-circle distance computation, a geocoder
// that resolves the location identifiers operators embed in BGP community
// documentation (full city names, city initials, IATA airport codes), and the
// 10 km identifier clustering described in Section 3.2 of the paper.
//
// The paper uses the Google Maps Geocoding API to turn free-form identifiers
// into coordinates and then groups identifiers within 10 km of each other.
// This package substitutes an embedded gazetteer for the remote API; the
// resolution and clustering logic is unchanged.
package geo

import (
	"math"
	"sort"
	"strings"
)

// Continent identifies one of the populated continents used for the
// regional breakdowns in Table 1 and Figure 5.
type Continent uint8

// Continents, ordered as the paper's Table 1 lists them.
const (
	ContinentUnknown Continent = iota
	Europe
	NorthAmerica
	AsiaPacific
	SouthAmerica
	Africa
)

// Continents lists all known continents in Table 1 order.
var Continents = []Continent{Europe, NorthAmerica, AsiaPacific, SouthAmerica, Africa}

// String returns the human-readable continent name.
func (c Continent) String() string {
	switch c {
	case Europe:
		return "Europe"
	case NorthAmerica:
		return "North America"
	case AsiaPacific:
		return "Asia/Pacific"
	case SouthAmerica:
		return "South America"
	case Africa:
		return "Africa"
	default:
		return "Unknown"
	}
}

// Coord is a WGS84 coordinate pair in decimal degrees.
type Coord struct {
	Lat float64
	Lon float64
}

// Valid reports whether the coordinate lies in the legal lat/lon range and
// is not the zero "null island" placeholder.
func (c Coord) Valid() bool {
	if c.Lat == 0 && c.Lon == 0 {
		return false
	}
	return c.Lat >= -90 && c.Lat <= 90 && c.Lon >= -180 && c.Lon <= 180
}

// earthRadiusKm is the mean Earth radius used by the haversine formula.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between a and b in
// kilometres using the haversine formula.
func DistanceKm(a, b Coord) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// CityID identifies a city in the gazetteer. IDs are stable for the life of
// a process: they are assigned in gazetteer order starting at 1. The zero
// value means "no city".
type CityID uint32

// NoCity is the zero CityID, meaning an unresolvable location.
const NoCity CityID = 0

// City is one gazetteer entry.
type City struct {
	ID        CityID
	Name      string // canonical name, e.g. "Amsterdam"
	Country   string // ISO 3166-1 alpha-2 code, e.g. "NL"
	Continent Continent
	Coord     Coord
	IATA      string   // primary airport code, e.g. "AMS"
	Aliases   []string // additional identifiers seen in community docs
}

// World is an immutable city gazetteer plus the alias index used for
// geocoding. The zero value is unusable; construct with NewWorld or
// DefaultWorld.
type World struct {
	cities  []City            // indexed by CityID-1
	byAlias map[string]CityID // normalized alias -> city
}

// NewWorld builds a gazetteer from the given cities. IDs are assigned in
// slice order starting from 1, overriding any IDs already present. Aliases
// are indexed case-insensitively; later cities do not displace earlier
// alias claims (first registration wins, mirroring how geocoding APIs
// resolve ambiguous names to the most prominent city).
func NewWorld(cities []City) *World {
	w := &World{
		cities:  make([]City, len(cities)),
		byAlias: make(map[string]CityID, len(cities)*4),
	}
	copy(w.cities, cities)
	for i := range w.cities {
		c := &w.cities[i]
		c.ID = CityID(i + 1)
		w.addAlias(c.Name, c.ID)
		if c.IATA != "" {
			w.addAlias(c.IATA, c.ID)
		}
		w.addAlias(initials(c.Name), c.ID)
		for _, a := range c.Aliases {
			w.addAlias(a, c.ID)
		}
	}
	return w
}

func (w *World) addAlias(alias string, id CityID) {
	key := normalizeAlias(alias)
	if key == "" {
		return
	}
	if _, taken := w.byAlias[key]; !taken {
		w.byAlias[key] = id
	}
}

// normalizeAlias canonicalizes an identifier for alias lookup: lower-case,
// with punctuation and internal whitespace removed, so that "New York City",
// "new-york-city" and "NewYork City" all collide.
func normalizeAlias(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// initials derives the capital-letter initialism of a multi-word name
// ("New York City" -> "NYC"). Single-word names yield "" since their
// initialism would be a single ambiguous letter.
func initials(name string) string {
	words := strings.Fields(name)
	if len(words) < 2 {
		return ""
	}
	var b strings.Builder
	for _, w := range words {
		b.WriteByte(w[0] &^ 0x20) // upper-case ASCII
	}
	return b.String()
}

// NumCities returns the number of cities in the gazetteer.
func (w *World) NumCities() int { return len(w.cities) }

// City returns the city with the given ID, or false if the ID is out of
// range.
func (w *World) City(id CityID) (City, bool) {
	if id == NoCity || int(id) > len(w.cities) {
		return City{}, false
	}
	return w.cities[id-1], true
}

// Cities returns all cities in ID order. The returned slice is shared;
// callers must not modify it.
func (w *World) Cities() []City { return w.cities }

// Resolve geocodes a free-form location identifier to a city. It accepts
// canonical names ("Amsterdam"), initialisms ("NYC"), IATA codes ("JFK",
// "FRA") and registered aliases, all case-insensitively.
func (w *World) Resolve(identifier string) (City, bool) {
	id, ok := w.byAlias[normalizeAlias(identifier)]
	if !ok {
		return City{}, false
	}
	return w.cities[id-1], true
}

// Nearest returns the gazetteer city closest to the coordinate and its
// distance in km. ok is false for an empty gazetteer or invalid coordinate.
func (w *World) Nearest(c Coord) (City, float64, bool) {
	if len(w.cities) == 0 || !c.Valid() {
		return City{}, 0, false
	}
	best := 0
	bestD := math.Inf(1)
	for i := range w.cities {
		if d := DistanceKm(c, w.cities[i].Coord); d < bestD {
			best, bestD = i, d
		}
	}
	return w.cities[best], bestD, true
}

// ClusterRadiusKm is the identifier-grouping radius from Section 3.2: two
// location identifiers whose geocoded coordinates are within this distance
// are treated as the same location.
const ClusterRadiusKm = 10.0

// Cluster groups identifiers into locations. Each input identifier is
// geocoded via Resolve; identifiers within ClusterRadiusKm of an existing
// cluster join it (single-linkage, in deterministic input order). The result
// maps every resolvable identifier to a cluster label, which is the
// normalized form of the first identifier that founded the cluster.
// Unresolvable identifiers are reported in the second return value.
func (w *World) Cluster(identifiers []string) (map[string]string, []string) {
	type cluster struct {
		label string
		coord Coord
	}
	var clusters []cluster
	out := make(map[string]string, len(identifiers))
	var unresolved []string

	// Deterministic order regardless of caller.
	sorted := make([]string, len(identifiers))
	copy(sorted, identifiers)
	sort.Strings(sorted)

	for _, ident := range sorted {
		city, ok := w.Resolve(ident)
		if !ok {
			unresolved = append(unresolved, ident)
			continue
		}
		assigned := false
		for i := range clusters {
			if DistanceKm(city.Coord, clusters[i].coord) <= ClusterRadiusKm {
				out[ident] = clusters[i].label
				assigned = true
				break
			}
		}
		if !assigned {
			label := normalizeAlias(city.Name)
			clusters = append(clusters, cluster{label: label, coord: city.Coord})
			out[ident] = label
		}
	}
	return out, unresolved
}

// PropagationDelay returns a one-way speed-of-light-in-fibre propagation
// delay estimate in milliseconds for the great-circle distance between a
// and b. Light in fibre travels at roughly 2/3 c ≈ 200 km/ms; real paths
// detour, so a conventional 1.5x path-stretch factor is applied. This is
// the RTT model used by the traceroute substrate (Section 6.3).
func PropagationDelay(a, b Coord) float64 {
	const kmPerMs = 200.0
	const stretch = 1.5
	return DistanceKm(a, b) * stretch / kmPerMs
}
