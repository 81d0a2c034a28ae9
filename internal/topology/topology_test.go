package topology

import (
	"testing"

	"kepler/internal/bgp"
	"kepler/internal/colo"
)

func genDefault(t *testing.T) *World {
	t.Helper()
	w, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

func TestGenerateCounts(t *testing.T) {
	w := genDefault(t)
	cfg := w.Cfg
	if got := len(w.ASes); got != cfg.Tier1s+cfg.Tier2s+cfg.Contents+cfg.Stubs {
		t.Errorf("ASes = %d", got)
	}
	if w.Map.NumFacilities() != cfg.Facilities {
		t.Errorf("facilities = %d, want %d", w.Map.NumFacilities(), cfg.Facilities)
	}
	if w.Map.NumIXPs() != cfg.IXPs {
		t.Errorf("ixps = %d, want %d", w.Map.NumIXPs(), cfg.IXPs)
	}
	if len(w.Links) == 0 {
		t.Fatal("no links generated")
	}
	if len(w.Collectors) != cfg.Collectors {
		t.Errorf("collectors = %d", len(w.Collectors))
	}
}

func TestGenerateDeterminism(t *testing.T) {
	w1 := genDefault(t)
	w2 := genDefault(t)
	if len(w1.Links) != len(w2.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(w1.Links), len(w2.Links))
	}
	for i := range w1.Links {
		a, b := w1.Links[i], w2.Links[i]
		if a.A != b.A || a.B != b.B || a.Kind != b.Kind || a.Facility != b.Facility || a.IXP != b.IXP {
			t.Fatalf("link %d differs: %+v vs %+v", i, a, b)
		}
	}
	for i := range w1.ASes {
		if w1.ASes[i].ASN != w2.ASes[i].ASN || w1.ASes[i].UsesCommunities != w2.ASes[i].UsesCommunities {
			t.Fatalf("AS %d differs", i)
		}
	}
}

func TestLinkInvariants(t *testing.T) {
	w := genDefault(t)
	for _, l := range w.Links {
		if l.A == l.B {
			t.Fatalf("self link: %+v", l)
		}
		switch l.Kind {
		case PNI:
			if l.IXP != 0 {
				t.Errorf("PNI with IXP set: %+v", l)
			}
			if l.Facility == 0 {
				t.Errorf("PNI without facility: %+v", l)
			}
		case PublicBilateral, Multilateral, RemotePeering:
			if l.IXP == 0 {
				t.Errorf("public link without IXP: %+v", l)
			}
			if l.Facility != 0 {
				t.Errorf("public link with PNI facility: %+v", l)
			}
		}
		if l.Rel == RelC2P && l.Kind != PNI {
			t.Errorf("transit over public peering: %+v", l)
		}
		// Port facilities of IXP links must belong to the IXP fabric.
		if l.IXP != 0 {
			ix, ok := w.Map.IXP(l.IXP)
			if !ok {
				t.Fatalf("link references unknown IXP %d", l.IXP)
			}
			for _, pf := range []colo.FacilityID{l.AFac, l.BFac} {
				if pf == 0 {
					continue
				}
				found := false
				for _, f := range ix.Facilities {
					if f == pf {
						found = true
					}
				}
				if !found {
					t.Errorf("port facility %d not in fabric of IXP %d", pf, l.IXP)
				}
			}
		}
	}
}

func TestEveryASHasRouteToTier1(t *testing.T) {
	w := genDefault(t)
	// Every non-tier1 AS must have at least one provider link (otherwise it
	// would be partitioned from the core).
	for _, a := range w.ASes {
		if a.Type == Tier1 {
			continue
		}
		hasProvider := false
		for _, l := range w.LinksOf(a.ASN) {
			if l.Rel == RelC2P && l.A == a.ASN {
				hasProvider = true
				break
			}
		}
		if !hasProvider {
			t.Errorf("%v (%v) has no provider", a.ASN, a.Type)
		}
	}
}

func TestPrefixOrigination(t *testing.T) {
	w := genDefault(t)
	seen := make(map[string]bgp.ASN)
	for _, a := range w.ASes {
		if len(a.Prefixes) == 0 {
			t.Errorf("%v originates no IPv4 prefixes", a.ASN)
		}
		for _, p := range append(append([]interface{ String() string }{}, toStringers(a.Prefixes)...), toStringers(a.Prefixes6)...) {
			if prev, dup := seen[p.String()]; dup {
				t.Errorf("prefix %s originated by both %v and %v", p, prev, a.ASN)
			}
			seen[p.String()] = a.ASN
		}
		for _, p := range a.Prefixes {
			if bgp.IsBogon(p) {
				t.Errorf("bogon prefix generated: %s", p)
			}
			origin, ok := w.OriginOf(p)
			if !ok || origin != a.ASN {
				t.Errorf("OriginOf(%s) = %v, %v", p, origin, ok)
			}
		}
	}
}

func toStringers[T interface{ String() string }](xs []T) []interface{ String() string } {
	out := make([]interface{ String() string }, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

func TestMembershipConsistency(t *testing.T) {
	w := genDefault(t)
	remote, local := 0, 0
	for _, a := range w.ASes {
		for _, mem := range a.Memberships {
			if !w.Map.AtIXP(a.ASN, mem.IXP) {
				t.Errorf("%v has membership at IXP %d but map disagrees", a.ASN, mem.IXP)
			}
			if mem.PortFacility == 0 {
				t.Errorf("%v membership without port facility", a.ASN)
			}
			if mem.Remote {
				remote++
			} else {
				local++
				// Local members must colocate at their port facility.
				found := false
				for _, f := range a.Facilities {
					if f == mem.PortFacility {
						found = true
					}
				}
				if !found {
					t.Errorf("%v local port at %d without colocation", a.ASN, mem.PortFacility)
				}
			}
		}
	}
	if remote == 0 {
		t.Error("no remote peering generated")
	}
	frac := float64(remote) / float64(remote+local)
	if frac < 0.03 || frac > 0.5 {
		t.Errorf("remote fraction %.2f outside plausible range", frac)
	}
}

func TestSchemes(t *testing.T) {
	w := genDefault(t)
	users, documented := 0, 0
	for _, a := range w.ASes {
		if a.UsesCommunities {
			users++
			if a.Documents {
				documented++
			}
		}
	}
	if users == 0 || documented == 0 {
		t.Fatalf("users=%d documented=%d", users, documented)
	}
	if len(w.Truth.Schemes) != users {
		t.Errorf("schemes = %d, want %d", len(w.Truth.Schemes), users)
	}
	// Scheme entries must have resolvable names and valid lows.
	for _, s := range w.Truth.Schemes {
		for _, e := range s.Entries {
			if e.Name == "" {
				t.Errorf("scheme %v has unnamed entry %+v", s.ASN, e)
			}
			if e.Low == 0 {
				t.Errorf("scheme %v has zero low value", s.ASN)
			}
		}
	}
}

func TestIngressCommunity(t *testing.T) {
	w := genDefault(t)
	found := false
	for _, a := range w.ASes {
		if !a.UsesCommunities {
			// Non-users never tag.
			for _, l := range w.LinksOf(a.ASN) {
				if _, _, ok := w.IngressCommunity(a.ASN, l); ok {
					t.Fatalf("non-user %v tagged a route", a.ASN)
				}
			}
			continue
		}
		for _, l := range w.LinksOf(a.ASN) {
			comm, pop, ok := w.IngressCommunity(a.ASN, l)
			if !ok {
				continue
			}
			found = true
			if comm.ASN() != a.ASN {
				t.Fatalf("community %v not branded with %v", comm, a.ASN)
			}
			if !pop.IsValid() {
				t.Fatalf("invalid PoP for %v", comm)
			}
			if a.Granularity == colo.PoPCity && pop.Kind != colo.PoPCity {
				t.Fatalf("city-granularity AS tagged %v", pop)
			}
		}
	}
	if !found {
		t.Fatal("no ingress communities at all")
	}
}

func TestSchemeLowDisjoint(t *testing.T) {
	// City, IXP and facility lows must never collide for realistic ID
	// ranges.
	if SchemeLow(colo.CityPoP(200)) >= SchemeLow(colo.IXPPoP(1)) {
		t.Error("city and IXP ranges overlap")
	}
	if SchemeLow(colo.IXPPoP(2000)) >= SchemeLow(colo.FacilityPoP(1)) {
		t.Error("IXP and facility ranges overlap")
	}
	if SchemeLow(colo.PoP{}) != 0 {
		t.Error("invalid PoP should map to 0")
	}
}

func TestCollectors(t *testing.T) {
	w := genDefault(t)
	seen := make(map[string]bool)
	for _, c := range w.Collectors {
		if seen[c.Name] {
			t.Errorf("duplicate collector %s", c.Name)
		}
		seen[c.Name] = true
		if len(c.Peers) == 0 {
			t.Errorf("collector %s has no peers", c.Name)
		}
		for _, p := range c.Peers {
			if _, ok := w.AS(p); !ok {
				t.Errorf("collector %s peers with unknown %v", c.Name, p)
			}
		}
	}
}

func TestRouteServers(t *testing.T) {
	w := genDefault(t)
	if len(w.RSASNs) != w.Cfg.IXPs {
		t.Errorf("route servers = %d, want %d", len(w.RSASNs), w.Cfg.IXPs)
	}
	for asn, ixp := range w.RSASNs {
		if got := w.RSASNOf(ixp); got != asn {
			t.Errorf("RSASNOf(%d) = %v, want %v", ixp, got, asn)
		}
	}
	if _, ok := w.RSASNs[3356]; ok {
		t.Error("tier1 classified as route server")
	}
}

func TestRSASNOfTwoRouteServers(t *testing.T) {
	w := NewEmptyWorld(nil, nil)
	w.RegisterRS(64902, 7)
	w.RegisterRS(64901, 7)
	w.RegisterRS(64903, 7)
	for i := 0; i < 100; i++ {
		if got := w.RSASNOf(7); got != 64901 {
			t.Fatalf("call %d: RSASNOf = %v, want the lowest route server 64901", i, got)
		}
	}
	if got := w.RSASNOf(8); got != 0 {
		t.Errorf("RSASNOf(unregistered IXP) = %v, want 0", got)
	}
}

func TestPoPName(t *testing.T) {
	w := genDefault(t)
	for _, f := range w.Map.Facilities() {
		if w.PoPName(colo.FacilityPoP(f.ID)) == "" {
			t.Errorf("facility %d has no PoP name", f.ID)
		}
	}
	for _, ix := range w.Map.IXPs() {
		if w.PoPName(colo.IXPPoP(ix.ID)) == "" {
			t.Errorf("ixp %d has no PoP name", ix.ID)
		}
	}
	if w.PoPName(colo.PoP{}) != "" {
		t.Error("invalid PoP should render empty")
	}
}

func TestLinkAccessors(t *testing.T) {
	l := &Interconnect{A: 1, B: 2, AFac: 10, BFac: 20}
	if l.Peer(1) != 2 || l.Peer(2) != 1 {
		t.Error("Peer wrong")
	}
	if !l.Involves(1) || l.Involves(3) {
		t.Error("Involves wrong")
	}
	if l.PortFacility(1) != 10 || l.PortFacility(2) != 20 || l.PortFacility(3) != 0 {
		t.Error("PortFacility wrong")
	}
}

func TestASTypeAndKindStrings(t *testing.T) {
	for _, tt := range []ASType{Tier1, Tier2, Content, Stub} {
		if tt.String() == "unknown" {
			t.Errorf("type %d renders unknown", tt)
		}
	}
	for _, k := range []LinkKind{PNI, PublicBilateral, Multilateral, RemotePeering} {
		if k.String() == "unknown" {
			t.Errorf("kind %d renders unknown", k)
		}
	}
}

func TestRegistrations(t *testing.T) {
	w := genDefault(t)
	regs := w.Registrations()
	if len(regs) != len(w.ASes) {
		t.Fatalf("registrations = %d", len(regs))
	}
	orgNames := make(map[string]int)
	for _, r := range regs {
		if r.OrgName == "" {
			t.Errorf("%v has empty org", r.ASN)
		}
		orgNames[r.OrgName]++
	}
	// Sibling generation must produce at least one shared org.
	shared := 0
	for _, n := range orgNames {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no sibling organizations generated")
	}
}
