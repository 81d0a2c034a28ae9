package bgp

import (
	"testing"
	"testing/quick"
)

func TestASNClassification(t *testing.T) {
	cases := []struct {
		asn     ASN
		private bool
		special bool
	}{
		{0, false, true},
		{3356, false, false},
		{13030, false, false},
		{23456, false, true},
		{64495, false, false},
		{64496, false, true},
		{64511, false, true},
		{64512, true, false},
		{65534, true, false},
		{65535, false, true},
		{65536, false, true},
		{65551, false, true},
		{65552, false, false},
		{4199999999, false, false},
		{4200000000, true, false},
		{4294967294, true, false},
		{4294967295, false, true},
	}
	for _, c := range cases {
		if got := c.asn.IsPrivate(); got != c.private {
			t.Errorf("%v.IsPrivate() = %v, want %v", c.asn, got, c.private)
		}
		if got := c.asn.IsSpecialPurpose(); got != c.special {
			t.Errorf("%v.IsSpecialPurpose() = %v, want %v", c.asn, got, c.special)
		}
		if got := c.asn.Routable(); got != (!c.private && !c.special) {
			t.Errorf("%v.Routable() = %v", c.asn, got)
		}
	}
}

func TestCommunityRoundTrip(t *testing.T) {
	f := func(hi, lo uint16) bool {
		c := MakeCommunity(hi, lo)
		return CommunityFromUint32(c.Uint32()) == c && c.ASN() == ASN(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommunitiesNormalize(t *testing.T) {
	cs := Communities{{2, 2}, {1, 1}, {2, 2}, {1, 1}, {3, 3}}
	got := cs.Normalize()
	want := Communities{{1, 1}, {2, 2}, {3, 3}}
	if !got.Equal(want) {
		t.Errorf("Normalize = %v, want %v", got, want)
	}
	// Idempotent, nil-safe, single-element safe.
	if !got.Normalize().Equal(want) {
		t.Error("Normalize not idempotent")
	}
	var empty Communities
	if empty.Normalize() != nil {
		t.Error("nil Normalize should stay nil")
	}
}

func TestCommunitiesQueries(t *testing.T) {
	cs := Communities{{13030, 51904}, {13030, 4006}, {2914, 410}}
	if !cs.Contains(Community{2914, 410}) {
		t.Error("Contains failed")
	}
	if cs.Contains(Community{2914, 411}) {
		t.Error("Contains false positive")
	}
	clone := cs.Clone()
	clone[0] = Community{1, 1}
	if cs[0] == clone[0] {
		t.Error("Clone is not independent")
	}
	if got := cs.String(); got != "13030:51904 13030:4006 2914:410" {
		t.Errorf("String = %q", got)
	}
}

func TestPathBasics(t *testing.T) {
	p := Path{3356, 13030, 20940}
	if p.First() != 3356 || p.Origin() != 20940 {
		t.Errorf("First/Origin = %v/%v", p.First(), p.Origin())
	}
	var empty Path
	if empty.First() != 0 || empty.Origin() != 0 {
		t.Error("empty path First/Origin should be 0")
	}
	if p.Index(13030) != 1 || p.Index(1) != -1 {
		t.Error("Index wrong")
	}
	if !p.Contains(20940) || p.Contains(9) {
		t.Error("Contains wrong")
	}
	if p.String() != "3356 13030 20940" {
		t.Errorf("String = %q", p.String())
	}
}

func TestPathLoops(t *testing.T) {
	cases := []struct {
		p    Path
		loop bool
	}{
		{Path{1, 2, 3}, false},
		{Path{1, 2, 2, 3}, false},       // prepending, not a loop
		{Path{1, 2, 2, 2, 2, 3}, false}, // heavy prepending
		{Path{1, 2, 3, 2}, true},        // genuine loop
		{Path{1, 2, 1}, true},           // collector peer loop
		{Path{7, 7, 7}, false},          // pure prepend
		{Path{1, 2, 3, 4, 5, 1}, true},  // long loop
		{nil, false},
	}
	for _, c := range cases {
		if got := c.p.HasLoop(); got != c.loop {
			t.Errorf("HasLoop(%v) = %v, want %v", c.p, got, c.loop)
		}
	}
}

func TestPathDedup(t *testing.T) {
	p := Path{1, 2, 2, 2, 3, 3, 4}
	if got := p.Dedup(); !got.Equal(Path{1, 2, 3, 4}) {
		t.Errorf("Dedup = %v", got)
	}
	if len(p) != 7 {
		t.Error("Dedup mutated receiver")
	}
	var empty Path
	if empty.Dedup() != nil {
		t.Error("Dedup(nil) should be nil")
	}
}

func TestPathDedupNeverLongerProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		p := make(Path, len(raw))
		for i, v := range raw {
			p[i] = ASN(v % 8) // force duplicates
		}
		d := p.Dedup()
		if len(d) > len(p) {
			return false
		}
		// No adjacent duplicates may remain.
		for i := 1; i < len(d); i++ {
			if d[i] == d[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathCloneIndependent(t *testing.T) {
	p := Path{1, 2, 3}
	c := p.Clone()
	c[0] = 99
	if p[0] != 1 {
		t.Error("Clone shares backing array")
	}
	if Path(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "IGP" || OriginEGP.String() != "EGP" || OriginIncomplete.String() != "INCOMPLETE" {
		t.Error("origin names wrong")
	}
	if Origin(9).String() != "INVALID(9)" {
		t.Errorf("invalid origin = %q", Origin(9).String())
	}
}

func TestAttributesClone(t *testing.T) {
	a := Attributes{
		ASPath:      Path{1, 2},
		Communities: Communities{{1, 2}},
	}
	c := a.Clone()
	c.ASPath[0] = 9
	c.Communities[0] = Community{9, 9}
	if a.ASPath[0] != 1 || a.Communities[0].High != 1 {
		t.Error("Attributes.Clone is shallow")
	}
}
