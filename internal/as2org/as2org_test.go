package as2org

import (
	"testing"

	"kepler/internal/bgp"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Bell Canada Inc.":         "bell canada",
		"Bell Canada":              "bell canada",
		"BELL CANADA LLC":          "bell canada",
		"Level 3 Communications":   "level 3 communications",
		"Hurricane Electric, LLC":  "hurricane electric",
		"Deutsche Telekom AG":      "deutsche telekom",
		"Foo Networks Ltd":         "foo networks",
		"Telia Company AB":         "telia",
		"":                         "",
		"GmbH":                     "gmbh", // lone suffix is kept: nothing else to match on
		"NTT Communications Corp.": "ntt communications",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBuildSiblings(t *testing.T) {
	tbl := Build([]Registration{
		{ASN: 577, OrgName: "Bell Canada Inc.", Country: "CA"},
		{ASN: 6539, OrgName: "Bell Canada", Country: "CA"},
		{ASN: 36522, OrgName: "BELL CANADA LLC", Country: "CA"},
		{ASN: 3356, OrgName: "Level 3 Communications", Country: "US"},
		{ASN: 3549, OrgName: "Level 3 Communications, LLC", Country: "US"},
		{ASN: 6939, OrgName: "Hurricane Electric", Country: "US"},
	})

	if tbl.NumOrgs() != 3 {
		t.Fatalf("NumOrgs = %d, want 3", tbl.NumOrgs())
	}
	same := func(a, b bgp.ASN) bool { return tbl.OrgOf(a) != 0 && tbl.OrgOf(a) == tbl.OrgOf(b) }
	if !same(577, 6539) || !same(6539, 36522) {
		t.Error("Bell Canada siblings not grouped")
	}
	if !same(3356, 3549) {
		t.Error("Level 3 siblings not grouped")
	}
	if same(3356, 6939) {
		t.Error("unrelated ASes grouped")
	}

	sib := tbl.Siblings(577)
	if len(sib) != 2 || sib[0] != 6539 || sib[1] != 36522 {
		t.Errorf("Siblings(577) = %v", sib)
	}
	if got := tbl.Siblings(9999); got != nil {
		t.Errorf("Siblings(unknown) = %v", got)
	}
}

func TestOrgLookup(t *testing.T) {
	tbl := Build([]Registration{
		{ASN: 1, OrgName: "Alpha Networks Ltd", Country: "GB"},
		{ASN: 2, OrgName: "Alpha Networks", Country: "GB"},
	})
	id := tbl.OrgOf(1)
	if id == 0 {
		t.Fatal("OrgOf(1) = 0")
	}
	org, ok := tbl.Org(id)
	if !ok || org.Name != "Alpha Networks Ltd" {
		t.Errorf("Org = %+v (longest name should be representative)", org)
	}
	if org.Country != "GB" || len(org.ASNs) != 2 {
		t.Errorf("Org = %+v", org)
	}
	if _, ok := tbl.Org(0); ok {
		t.Error("Org(0) should fail")
	}
	if _, ok := tbl.Org(99); ok {
		t.Error("Org(out of range) should fail")
	}
	if tbl.OrgOf(42) != 0 {
		t.Error("OrgOf(unknown) should be 0")
	}
}

func TestUnnamedRegistrationsStaySeparate(t *testing.T) {
	tbl := Build([]Registration{
		{ASN: 10, OrgName: ""},
		{ASN: 11, OrgName: ""},
	})
	if tbl.OrgOf(10) == tbl.OrgOf(11) {
		t.Error("unnamed registrations merged")
	}
	if tbl.NumOrgs() != 2 {
		t.Errorf("NumOrgs = %d, want 2", tbl.NumOrgs())
	}
}

func TestDistinctOrgs(t *testing.T) {
	tbl := Build([]Registration{
		{ASN: 1, OrgName: "Acme"},
		{ASN: 2, OrgName: "Acme Inc"},
		{ASN: 3, OrgName: "Zenith"},
	})
	if got := tbl.DistinctOrgs([]bgp.ASN{1, 2}); got != 1 {
		t.Errorf("DistinctOrgs(siblings) = %d, want 1", got)
	}
	if got := tbl.DistinctOrgs([]bgp.ASN{1, 2, 3}); got != 2 {
		t.Errorf("DistinctOrgs = %d, want 2", got)
	}
	// Unknown ASNs each count individually.
	if got := tbl.DistinctOrgs([]bgp.ASN{1, 100, 101}); got != 3 {
		t.Errorf("DistinctOrgs with unknowns = %d, want 3", got)
	}
	if got := tbl.DistinctOrgs(nil); got != 0 {
		t.Errorf("DistinctOrgs(nil) = %d", got)
	}
}

func TestBuildDeterminism(t *testing.T) {
	regs := []Registration{
		{ASN: 5, OrgName: "Echo"},
		{ASN: 4, OrgName: "Delta"},
		{ASN: 3, OrgName: "Charlie"},
		{ASN: 2, OrgName: "Bravo"},
		{ASN: 1, OrgName: "Alpha"},
	}
	t1 := Build(regs)
	// Reversed input order.
	rev := make([]Registration, len(regs))
	for i, r := range regs {
		rev[len(regs)-1-i] = r
	}
	t2 := Build(rev)
	for asn := bgp.ASN(1); asn <= 5; asn++ {
		o1, _ := t1.Org(t1.OrgOf(asn))
		o2, _ := t2.Org(t2.OrgOf(asn))
		if o1.Name != o2.Name {
			t.Errorf("AS%d org differs across input orders: %q vs %q", asn, o1.Name, o2.Name)
		}
	}
}
