package colo

import (
	"net/netip"
	"testing"

	"kepler/internal/bgp"
	"kepler/internal/geo"
)

// buildTestMap assembles a small two-source map:
//
//	Facility "Telehouse East" (London): AS1 AS2 AS3 (peeringdb) + AS4 (dcmap)
//	Facility "Equinix AM7" (Amsterdam): AS2 AS5
//	IXP "LINX" (London): members AS1..AS4, fabric at Telehouse East
//	IXP "AMS-IX" (Amsterdam): members AS2 AS5 AS6, fabric at AM7
func buildTestMap(t *testing.T) *Map {
	t.Helper()
	b := NewBuilder(geo.DefaultWorld())

	theAddr := Address{Street: "Coriander Ave", Postcode: "E14 2AA", Country: "GB"}
	am7Addr := Address{Street: "Kuiperberghweg 13", Postcode: "1101 AE", Country: "NL"}

	b.AddFacility(FacilityRecord{
		Source: "peeringdb", Name: "Telehouse East", Operator: "Telehouse",
		Addr: theAddr, CityHint: "London", Members: []bgp.ASN{1, 2, 3},
	})
	b.AddFacility(FacilityRecord{
		Source: "dcmap", Name: "Telehouse London East", // longer name wins
		Addr: Address{Postcode: "E14 2AA", Country: "GB"}, CityHint: "LON",
		Members: []bgp.ASN{2, 4},
	})
	b.AddFacility(FacilityRecord{
		Source: "peeringdb", Name: "Equinix AM7", Operator: "Equinix",
		Addr: am7Addr, CityHint: "Amsterdam", Members: []bgp.ASN{2, 5},
	})

	b.AddIXP(IXPRecord{
		Source: "peeringdb", Name: "LINX LON1", URL: "https://linx.net",
		CityHint: "London", ASNs: []bgp.ASN{8714},
		LANs:          []netip.Prefix{netip.MustParsePrefix("195.66.224.0/22")},
		Members:       []bgp.ASN{1, 2, 3},
		FacilityAddrs: []Address{theAddr},
	})
	b.AddIXP(IXPRecord{
		Source: "euroix", Name: "LINX", URL: "https://LINX.net", // same URL, case-insensitive
		CityHint: "London", Members: []bgp.ASN{4},
	})
	b.AddIXP(IXPRecord{
		Source: "peeringdb", Name: "AMS-IX", URL: "https://ams-ix.net",
		CityHint: "Amsterdam", ASNs: []bgp.ASN{6777},
		LANs:          []netip.Prefix{netip.MustParsePrefix("80.249.208.0/21")},
		Members:       []bgp.ASN{2, 5, 6},
		FacilityAddrs: []Address{am7Addr},
	})
	return b.Build()
}

func TestMergeFacilitiesByAddress(t *testing.T) {
	m := buildTestMap(t)
	if m.NumFacilities() != 2 {
		t.Fatalf("facilities = %d, want 2 (merge by postcode failed)", m.NumFacilities())
	}
	fid, ok := m.FacilityByAddress(Address{Postcode: "E14 2AA", Country: "GB"})
	if !ok {
		t.Fatal("Telehouse East not found by address")
	}
	f, _ := m.Facility(fid)
	if f.Name != "Telehouse London East" {
		t.Errorf("longest name should win: %q", f.Name)
	}
	if f.Operator != "Telehouse" {
		t.Errorf("operator lost: %q", f.Operator)
	}
	if f.Addr.Street != "Coriander Ave" {
		t.Errorf("street lost: %q", f.Addr.Street)
	}
	wantMembers := []bgp.ASN{1, 2, 3, 4}
	if len(f.Members) != len(wantMembers) {
		t.Fatalf("members = %v, want %v", f.Members, wantMembers)
	}
	for i, a := range wantMembers {
		if f.Members[i] != a {
			t.Errorf("members = %v, want %v", f.Members, wantMembers)
			break
		}
	}
	if len(f.Sources) != 2 {
		t.Errorf("sources = %v", f.Sources)
	}
	lon, _ := geo.DefaultWorld().Resolve("London")
	if f.City != lon.ID {
		t.Errorf("city = %d, want London(%d)", f.City, lon.ID)
	}
}

func TestMergeIXPsByURL(t *testing.T) {
	m := buildTestMap(t)
	if m.NumIXPs() != 2 {
		t.Fatalf("ixps = %d, want 2 (URL merge failed)", m.NumIXPs())
	}
	var linx IXP
	for _, ix := range m.IXPs() {
		if ix.Name == "LINX LON1" {
			linx = ix
		}
	}
	if linx.ID == 0 {
		t.Fatal("LINX not found")
	}
	if len(linx.Members) != 4 {
		t.Errorf("LINX members = %v, want 4 after merge", linx.Members)
	}
	if len(linx.Facilities) != 1 {
		t.Fatalf("LINX fabric facilities = %v", linx.Facilities)
	}
	// Route-server ASN lookup.
	got, ok := m.IXPByOperatedASN(8714)
	if !ok || got != linx.ID {
		t.Errorf("IXPByOperatedASN(8714) = %d, %v", got, ok)
	}
	if _, ok := m.IXPByOperatedASN(9999); ok {
		t.Error("unknown operated ASN resolved")
	}
}

func TestIndices(t *testing.T) {
	m := buildTestMap(t)
	// AS2 is in both facilities and both IXPs.
	if got := m.FacilitiesOf(2); len(got) != 2 {
		t.Errorf("FacilitiesOf(2) = %v", got)
	}
	if got := m.FacilitiesOf(99); got != nil {
		t.Errorf("FacilitiesOf(99) = %v", got)
	}

	lon, _ := geo.DefaultWorld().Resolve("London")
	if got := m.FacilitiesInCity(lon.ID); len(got) != 1 {
		t.Errorf("FacilitiesInCity(London) = %v", got)
	}
	if got := m.IXPsInCity(lon.ID); len(got) != 1 {
		t.Errorf("IXPsInCity(London) = %v", got)
	}
}

func TestCommonQueries(t *testing.T) {
	m := buildTestMap(t)
	theID, _ := m.FacilityByAddress(Address{Postcode: "E14 2AA", Country: "GB"})
	if got := m.CommonIXPs(2, 5); len(got) != 1 {
		t.Errorf("CommonIXPs(2,5) = %v", got)
	}
	if !m.AtFacility(1, theID) || m.AtFacility(5, theID) {
		t.Error("AtFacility wrong")
	}
}

func TestCityOf(t *testing.T) {
	m := buildTestMap(t)
	world := geo.DefaultWorld()
	lon, _ := world.Resolve("London")
	ams, _ := world.Resolve("Amsterdam")
	theID, _ := m.FacilityByAddress(Address{Postcode: "E14 2AA", Country: "GB"})

	if got := m.CityOf(FacilityPoP(theID)); got != lon.ID {
		t.Errorf("CityOf(facility) = %d", got)
	}
	if got := m.CityOf(CityPoP(ams.ID)); got != ams.ID {
		t.Errorf("CityOf(city) = %d", got)
	}
	var amsix IXPID
	for _, ix := range m.IXPs() {
		if ix.Name == "AMS-IX" {
			amsix = ix.ID
		}
	}
	if got := m.CityOf(IXPPoP(amsix)); got != ams.ID {
		t.Errorf("CityOf(ixp) = %d", got)
	}
	if got := m.CityOf(PoP{}); got != geo.NoCity {
		t.Errorf("CityOf(invalid) = %d", got)
	}
}

func TestTrackable(t *testing.T) {
	m := buildTestMap(t)
	theID, _ := m.FacilityByAddress(Address{Postcode: "E14 2AA", Country: "GB"})

	all := func(bgp.ASN) bool { return true }
	none := func(bgp.ASN) bool { return false }

	ok, n := m.Trackable(theID, all)
	if ok || n != 4 { // 4 members < MinTrackableMembers
		t.Errorf("Trackable(all) = %v, %d", ok, n)
	}
	ok, n = m.Trackable(theID, none)
	if ok || n != 0 {
		t.Errorf("Trackable(none) = %v, %d", ok, n)
	}
	if ok, _ := m.Trackable(999, all); ok {
		t.Error("Trackable(bogus id) = true")
	}
}

func TestTrackableThreshold(t *testing.T) {
	b := NewBuilder(geo.DefaultWorld())
	members := make([]bgp.ASN, 10)
	for i := range members {
		members[i] = bgp.ASN(i + 1)
	}
	b.AddFacility(FacilityRecord{
		Source: "peeringdb", Name: "Big Facility",
		Addr: Address{Postcode: "10115", Country: "DE"}, CityHint: "Berlin",
		Members: members,
	})
	m := b.Build()
	fid, _ := m.FacilityByAddress(Address{Postcode: "10115", Country: "DE"})

	coverN := func(n int) func(bgp.ASN) bool {
		return func(a bgp.ASN) bool { return int(a) <= n }
	}
	if ok, _ := m.Trackable(fid, coverN(5)); ok {
		t.Error("5 covered members should not be trackable")
	}
	if ok, _ := m.Trackable(fid, coverN(6)); !ok {
		t.Error("6 covered members should be trackable")
	}
}

func TestPoPBasics(t *testing.T) {
	p := FacilityPoP(7)
	if !p.IsValid() || p.String() != "facility:7" {
		t.Errorf("PoP = %v valid=%v", p, p.IsValid())
	}
	if (PoP{}).IsValid() {
		t.Error("zero PoP should be invalid")
	}
	if CityPoP(0).IsValid() {
		t.Error("zero-ID PoP should be invalid")
	}
	if PoPCity.String() != "city" || PoPFacility.String() != "facility" || PoPIXP.String() != "ixp" || PoPInvalid.String() != "invalid" {
		t.Error("kind names wrong")
	}
	// PoPs must be usable as map keys.
	set := map[PoP]bool{CityPoP(1): true, FacilityPoP(1): true, IXPPoP(1): true}
	if len(set) != 3 {
		t.Error("PoP kinds collide as map keys")
	}
}

func TestBuildDeterminism(t *testing.T) {
	m1 := buildTestMap(t)
	m2 := buildTestMap(t)
	if m1.NumFacilities() != m2.NumFacilities() || m1.NumIXPs() != m2.NumIXPs() {
		t.Fatal("non-deterministic build")
	}
	for i := range m1.Facilities() {
		if m1.Facilities()[i].Name != m2.Facilities()[i].Name {
			t.Fatal("facility order differs across builds")
		}
	}
	for i := range m1.IXPs() {
		if m1.IXPs()[i].Name != m2.IXPs()[i].Name {
			t.Fatal("ixp order differs across builds")
		}
	}
}

func TestAddressString(t *testing.T) {
	a := Address{Street: "Coriander Ave", Postcode: "E14 2AA", Country: "GB"}
	if a.String() == "" || a.Key() != "E14 2AA/GB" {
		t.Errorf("Address rendering wrong: %q %q", a.String(), a.Key())
	}
}
