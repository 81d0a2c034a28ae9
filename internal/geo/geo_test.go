package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKmKnownPairs(t *testing.T) {
	w := DefaultWorld()
	ams, _ := w.Resolve("Amsterdam")
	lon, _ := w.Resolve("London")
	fra, _ := w.Resolve("Frankfurt")

	// Amsterdam–London is roughly 358 km, Amsterdam–Frankfurt roughly 360 km.
	cases := []struct {
		a, b    Coord
		wantKm  float64
		within  float64
		comment string
	}{
		{ams.Coord, lon.Coord, 358, 25, "AMS-LON"},
		{ams.Coord, fra.Coord, 365, 25, "AMS-FRA"},
		{ams.Coord, ams.Coord, 0, 0.001, "identity"},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.within {
			t.Errorf("%s: DistanceKm = %.1f, want %.1f ± %.1f", c.comment, got, c.wantKm, c.within)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Coord{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	w := DefaultWorld()
	cities := w.Cities()
	// Spot-check the triangle inequality over gazetteer triples.
	for i := 0; i < len(cities); i += 7 {
		for j := 1; j < len(cities); j += 13 {
			k := (i + j) % len(cities)
			ab := DistanceKm(cities[i].Coord, cities[j].Coord)
			bc := DistanceKm(cities[j].Coord, cities[k].Coord)
			ac := DistanceKm(cities[i].Coord, cities[k].Coord)
			if ac > ab+bc+1e-6 {
				t.Fatalf("triangle inequality violated: %s %s %s", cities[i].Name, cities[j].Name, cities[k].Name)
			}
		}
	}
}

func TestResolveAliases(t *testing.T) {
	w := DefaultWorld()
	cases := []struct {
		ident string
		want  string
	}{
		{"Amsterdam", "Amsterdam"},
		{"AMS", "Amsterdam"},
		{"amsterdam", "Amsterdam"},
		{"New York City", "New York City"},
		{"NYC", "New York City"},
		{"JFK", "New York City"},
		{"FRA", "Frankfurt"},
		{"FFM", "Frankfurt"},
		{"frankfurt am main", "Frankfurt"},
		{"LHR", "London"},
		{"LON", "London"},
		{"sao-paulo", "Sao Paulo"},
	}
	for _, c := range cases {
		got, ok := w.Resolve(c.ident)
		if !ok {
			t.Errorf("Resolve(%q): not found", c.ident)
			continue
		}
		if got.Name != c.want {
			t.Errorf("Resolve(%q) = %s, want %s", c.ident, got.Name, c.want)
		}
	}
	if _, ok := w.Resolve("Atlantis"); ok {
		t.Error("Resolve(Atlantis) unexpectedly succeeded")
	}
	if _, ok := w.Resolve(""); ok {
		t.Error("Resolve(\"\") unexpectedly succeeded")
	}
}

func TestCityLookupByID(t *testing.T) {
	w := DefaultWorld()
	if _, ok := w.City(NoCity); ok {
		t.Error("City(NoCity) should fail")
	}
	if _, ok := w.City(CityID(len(w.Cities()) + 1)); ok {
		t.Error("City(out of range) should fail")
	}
	first, ok := w.City(1)
	if !ok || first.ID != 1 {
		t.Fatalf("City(1) = %+v ok=%v", first, ok)
	}
	// Every city must resolve to itself via its canonical name.
	for _, c := range w.Cities() {
		got, ok := w.Resolve(c.Name)
		if !ok {
			t.Errorf("city %q does not resolve", c.Name)
			continue
		}
		if DistanceKm(got.Coord, c.Coord) > ClusterRadiusKm {
			t.Errorf("city %q resolves to %q more than %v km away", c.Name, got.Name, ClusterRadiusKm)
		}
	}
}

func TestGazetteerIntegrity(t *testing.T) {
	w := DefaultWorld()
	seen := make(map[string]bool)
	for _, c := range w.Cities() {
		if c.Name == "" || c.Country == "" {
			t.Errorf("city %d has empty name or country", c.ID)
		}
		if !c.Coord.Valid() {
			t.Errorf("city %q has invalid coordinates %+v", c.Name, c.Coord)
		}
		if c.Continent == ContinentUnknown {
			t.Errorf("city %q has unknown continent", c.Name)
		}
		key := c.Name + "/" + c.Country
		if seen[key] {
			t.Errorf("duplicate city %q", key)
		}
		seen[key] = true
	}
	// The gazetteer must cover all five continents for Table 1.
	counts := make(map[Continent]int)
	for _, c := range w.Cities() {
		counts[c.Continent]++
	}
	for _, cont := range Continents {
		if counts[cont] == 0 {
			t.Errorf("no cities on continent %s", cont)
		}
	}
	if counts[Europe] <= counts[NorthAmerica] {
		t.Error("gazetteer should be Europe-heavy to match the paper's skew")
	}
}

func TestClusterGroupsNearbyIdentifiers(t *testing.T) {
	w := DefaultWorld()
	labels, unresolved := w.Cluster([]string{"New York City", "NYC", "JFK", "Newark", "Amsterdam", "AMS", "Gotham"})
	if len(unresolved) != 1 || unresolved[0] != "Gotham" {
		t.Fatalf("unresolved = %v, want [Gotham]", unresolved)
	}
	// All three NYC identifiers must share one label.
	if labels["New York City"] != labels["NYC"] || labels["NYC"] != labels["JFK"] {
		t.Errorf("NYC identifiers split: %v", labels)
	}
	// Newark is ~14 km from Manhattan: beyond the 10 km radius, so its own cluster.
	if labels["Newark"] == labels["NYC"] {
		t.Errorf("Newark should not cluster with NYC: %v", labels)
	}
	if labels["Amsterdam"] != labels["AMS"] {
		t.Errorf("Amsterdam identifiers split: %v", labels)
	}
	if labels["Amsterdam"] == labels["NYC"] {
		t.Errorf("Amsterdam must not cluster with NYC")
	}
}

func TestClusterDeterminism(t *testing.T) {
	w := DefaultWorld()
	in1 := []string{"AMS", "Amsterdam", "Rotterdam", "LON", "London"}
	in2 := []string{"London", "Rotterdam", "AMS", "LON", "Amsterdam"}
	l1, _ := w.Cluster(in1)
	l2, _ := w.Cluster(in2)
	for k, v := range l1 {
		if l2[k] != v {
			t.Errorf("cluster label for %q differs across input orders: %q vs %q", k, v, l2[k])
		}
	}
}

func TestPropagationDelay(t *testing.T) {
	w := DefaultWorld()
	ams, _ := w.Resolve("AMS")
	lon, _ := w.Resolve("LON")
	nyc, _ := w.Resolve("NYC")

	local := PropagationDelay(ams.Coord, ams.Coord)
	if local != 0 {
		t.Errorf("zero-distance delay = %f", local)
	}
	short := PropagationDelay(ams.Coord, lon.Coord)
	long := PropagationDelay(ams.Coord, nyc.Coord)
	if short <= 0 || long <= short {
		t.Errorf("delay ordering wrong: short=%.2f long=%.2f", short, long)
	}
	// Transatlantic one-way should be tens of ms, not hundreds.
	if long < 20 || long > 80 {
		t.Errorf("AMS-NYC one-way delay %.1f ms outside plausible [20,80]", long)
	}
}

func TestInitials(t *testing.T) {
	cases := map[string]string{
		"New York City": "NYC",
		"Amsterdam":     "",
		"Sao Paulo":     "SP",
		"":              "",
	}
	for in, want := range cases {
		if got := initials(in); got != want {
			t.Errorf("initials(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeAlias(t *testing.T) {
	cases := map[string]string{
		"New York City": "newyorkcity",
		"new-york-city": "newyorkcity",
		"AMS":           "ams",
		"  ":            "",
		"FR5/Kleyer":    "fr5kleyer",
	}
	for in, want := range cases {
		if got := normalizeAlias(in); got != want {
			t.Errorf("normalizeAlias(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestContinentString(t *testing.T) {
	for _, c := range Continents {
		if c.String() == "Unknown" {
			t.Errorf("continent %d stringifies to Unknown", c)
		}
	}
	if ContinentUnknown.String() != "Unknown" {
		t.Error("ContinentUnknown should stringify to Unknown")
	}
}
