package routing

import (
	"net/netip"
	"testing"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/geo"
	"kepler/internal/topology"
)

// fig2World reconstructs the topology of the paper's Figure 2:
//
//	facilities F1, F2 (London), F3, F4 (Amsterdam)
//	IX1 fabric at F2+F3; IX2 fabric at F4
//	AS1–AS2: private peering at F2, backup PNI at F1
//	AS2–AS4: public bilateral via IX1 (ports F2 / F3)
//	AS3–AS4: multilateral via IX1 (ports F3 / F3), backup via IX2 (F4/F4)
//	AS10: common transit provider of all four (PNIs at various facilities)
type fig2 struct {
	w                  *topology.World
	f1, f2, f3, f4     colo.FacilityID
	ix1, ix2           colo.IXPID
	as1, as2, as3, as4 bgp.ASN
	as10               bgp.ASN
}

func buildFig2(t *testing.T) *fig2 {
	t.Helper()
	gw := geo.DefaultWorld()
	b := colo.NewBuilder(gw)
	addrs := []colo.Address{
		{Street: "1 Dock Rd", Postcode: "F1", Country: "GB"},
		{Street: "2 Dock Rd", Postcode: "F2", Country: "GB"},
		{Street: "1 Gracht", Postcode: "F3", Country: "NL"},
		{Street: "2 Gracht", Postcode: "F4", Country: "NL"},
	}
	cities := []string{"London", "London", "Amsterdam", "Amsterdam"}
	members := [][]bgp.ASN{
		{1, 2, 10},
		{1, 2, 10},
		{3, 4, 10},
		{3, 4, 10},
	}
	for i, a := range addrs {
		b.AddFacility(colo.FacilityRecord{
			Source: "truth", Name: "Fac" + a.Postcode, Addr: a,
			CityHint: cities[i], Members: members[i],
		})
	}
	b.AddIXP(colo.IXPRecord{
		Source: "truth", Name: "IX1", URL: "https://ix1.test", CityHint: "London",
		ASNs:          []bgp.ASN{64900},
		Members:       []bgp.ASN{2, 3, 4},
		FacilityAddrs: []colo.Address{addrs[1], addrs[2]},
	})
	b.AddIXP(colo.IXPRecord{
		Source: "truth", Name: "IX2", URL: "https://ix2.test", CityHint: "Amsterdam",
		ASNs:          []bgp.ASN{64901},
		Members:       []bgp.ASN{3, 4},
		FacilityAddrs: []colo.Address{addrs[3]},
	})
	cmap := b.Build()

	var fid [4]colo.FacilityID
	for i, a := range addrs {
		id, ok := cmap.FacilityByAddress(a)
		if !ok {
			t.Fatalf("facility %d missing", i)
		}
		fid[i] = id
	}
	ix1, _ := cmap.IXPByOperatedASN(64900)
	ix2, _ := cmap.IXPByOperatedASN(64901)

	w := topology.NewEmptyWorld(cmap, gw)
	mkAS := func(asn bgp.ASN, prefix string, facs []colo.FacilityID, gran colo.PoPKind, comm bool) {
		a := &topology.AS{
			ASN: asn, Type: topology.Tier2,
			Name:            asn.String(),
			OrgName:         asn.String() + " Org",
			Prefixes:        []netip.Prefix{netip.MustParsePrefix(prefix)},
			Facilities:      facs,
			UsesCommunities: comm,
			Granularity:     gran,
		}
		if lon, ok := gw.Resolve("London"); ok {
			a.HomeCity = lon.ID
		}
		w.AddAS(a)
	}
	mkAS(1, "20.1.0.0/24", []colo.FacilityID{fid[0], fid[1]}, colo.PoPFacility, true)
	mkAS(2, "20.2.0.0/24", []colo.FacilityID{fid[0], fid[1]}, colo.PoPFacility, true)
	mkAS(3, "20.3.0.0/24", []colo.FacilityID{fid[2], fid[3]}, colo.PoPFacility, true)
	mkAS(4, "20.4.0.0/24", []colo.FacilityID{fid[2], fid[3]}, colo.PoPFacility, true)
	mkAS(10, "20.10.0.0/24", []colo.FacilityID{fid[0], fid[1], fid[2], fid[3]}, colo.PoPFacility, true)
	w.RegisterRS(64900, ix1)
	w.RegisterRS(64901, ix2)

	// Peering per Figure 2.
	w.Connect(1, 2, topology.RelP2P, topology.PNI, fid[1], 0, 0, 0) // primary AS1-AS2 @ F2
	w.Connect(1, 2, topology.RelP2P, topology.PNI, fid[0], 0, 0, 0) // backup @ F1
	w.Connect(2, 4, topology.RelP2P, topology.PublicBilateral, 0, ix1, fid[1], fid[2])
	w.Connect(3, 4, topology.RelP2P, topology.Multilateral, 0, ix1, fid[2], fid[2])
	w.Connect(3, 4, topology.RelP2P, topology.Multilateral, 0, ix2, fid[3], fid[3])
	// Transit to AS10.
	w.Connect(1, 10, topology.RelC2P, topology.PNI, fid[0], 0, 0, 0)
	w.Connect(2, 10, topology.RelC2P, topology.PNI, fid[0], 0, 0, 0)
	w.Connect(3, 10, topology.RelC2P, topology.PNI, fid[3], 0, 0, 0)
	w.Connect(4, 10, topology.RelC2P, topology.PNI, fid[3], 0, 0, 0)
	w.FinishSchemes()

	return &fig2{
		w: w, f1: fid[0], f2: fid[1], f3: fid[2], f4: fid[3],
		ix1: ix1, ix2: ix2, as1: 1, as2: 2, as3: 3, as4: 4, as10: 10,
	}
}

func TestFig2Baseline(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)

	// AS1 -> AS2 uses the F2 PNI (lowest link ID among equal candidates).
	t2 := e.ComputeOrigin(s.as2, nil)
	r, ok := e.Route(t2, s.as1)
	if !ok {
		t.Fatal("AS1 cannot reach AS2")
	}
	if !r.Path.Equal(bgp.Path{1, 2}) {
		t.Fatalf("AS1->AS2 path = %v", r.Path)
	}
	if r.Links[0].Facility != s.f2 {
		t.Errorf("AS1->AS2 uses facility %d, want F2=%d", r.Links[0].Facility, s.f2)
	}
	// AS1 tags its ingress at F2.
	want := topology.CommunityFor(1, colo.FacilityPoP(s.f2))
	if !r.Communities.Contains(want) {
		t.Errorf("communities %v missing %v", r.Communities, want)
	}

	// AS2 -> AS4: direct peer route via IX1 preferred over transit.
	t4 := e.ComputeOrigin(s.as4, nil)
	r24, ok := e.Route(t4, s.as2)
	if !ok || !r24.Path.Equal(bgp.Path{2, 4}) {
		t.Fatalf("AS2->AS4 = %+v ok=%v", r24, ok)
	}
	if r24.Links[0].IXP != s.ix1 {
		t.Errorf("AS2->AS4 not via IX1")
	}

	// AS3 -> AS4 multilateral via IX1 (preferred over IX2 by link ID) and
	// carries the RS community.
	r34, ok := e.Route(t4, s.as3)
	if !ok || !r34.Path.Equal(bgp.Path{3, 4}) {
		t.Fatalf("AS3->AS4 = %+v", r34)
	}
	if r34.Links[0].IXP != s.ix1 {
		t.Errorf("AS3->AS4 not via IX1: %+v", r34.Links[0])
	}
	rs := bgp.MakeCommunity(64900, topology.RSCommunityLow)
	if !r34.Communities.Contains(rs) {
		t.Errorf("RS community missing: %v", r34.Communities)
	}
}

func TestFig2FacilityOutage(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)

	// Figure 2(b): F2 fails. AS1-AS2 moves to the F1 PNI; AS2->AS4 loses
	// its IX1 port (at F2) and falls back to transit via AS10; AS3->AS4
	// keeps IX1 (ports at F3).
	mask := NewMask()
	mask.FailFacility(s.f2)

	t2 := e.ComputeOrigin(s.as2, mask)
	r12, ok := e.Route(t2, s.as1)
	if !ok || !r12.Path.Equal(bgp.Path{1, 2}) {
		t.Fatalf("AS1->AS2 after F2 outage = %+v", r12)
	}
	if r12.Links[0].Facility != s.f1 {
		t.Errorf("AS1->AS2 should use backup F1, got facility %d", r12.Links[0].Facility)
	}
	// The AS path is unchanged but the community changed — the paper's core
	// observation.
	if !r12.Communities.Contains(topology.CommunityFor(1, colo.FacilityPoP(s.f1))) {
		t.Errorf("ingress community did not move to F1: %v", r12.Communities)
	}

	t4 := e.ComputeOrigin(s.as4, mask)
	r24, ok := e.Route(t4, s.as2)
	if !ok {
		t.Fatal("AS2 lost AS4 entirely")
	}
	if !r24.Path.Equal(bgp.Path{2, 10, 4}) {
		t.Errorf("AS2->AS4 after F2 outage = %v, want via AS10", r24.Path)
	}
	r34, ok := e.Route(t4, s.as3)
	if !ok || r34.Links[0].IXP != s.ix1 {
		t.Errorf("AS3->AS4 should keep IX1: %+v", r34)
	}
}

func TestFig2IXPOutage(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)

	// Figure 2(c): IX1 fails. AS1-AS2 PNI unaffected; AS2->AS4 to transit;
	// AS3->AS4 fails over to IX2.
	mask := NewMask()
	mask.FailIXP(s.ix1)

	t2 := e.ComputeOrigin(s.as2, mask)
	r12, _ := e.Route(t2, s.as1)
	if r12 == nil || r12.Links[0].Facility != s.f2 {
		t.Errorf("AS1->AS2 should keep F2 PNI: %+v", r12)
	}

	t4 := e.ComputeOrigin(s.as4, mask)
	r24, _ := e.Route(t4, s.as2)
	if r24 == nil || !r24.Path.Equal(bgp.Path{2, 10, 4}) {
		t.Errorf("AS2->AS4 = %+v, want transit", r24)
	}
	r34, _ := e.Route(t4, s.as3)
	if r34 == nil || !r34.Path.Equal(bgp.Path{3, 4}) {
		t.Fatalf("AS3->AS4 = %+v", r34)
	}
	if r34.Links[0].IXP != s.ix2 {
		t.Errorf("AS3->AS4 should fail over to IX2, got IXP %d", r34.Links[0].IXP)
	}
	// AS path identical, physical infrastructure changed: the detection
	// challenge the paper motivates.
}

func TestFig2PortFacilityOutage(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)

	// F3 hosts AS4's IX1 port and the AS3/AS4 multilateral ports: failing
	// it kills IX1 peering for those ports while IX1 itself stays up.
	mask := NewMask()
	mask.FailFacility(s.f3)

	t4 := e.ComputeOrigin(s.as4, mask)
	r24, _ := e.Route(t4, s.as2)
	if r24 == nil || !r24.Path.Equal(bgp.Path{2, 10, 4}) {
		t.Errorf("AS2->AS4 = %+v, want transit after port loss", r24)
	}
	r34, _ := e.Route(t4, s.as3)
	if r34 == nil || r34.Links[0].IXP != s.ix2 {
		t.Errorf("AS3->AS4 should use IX2: %+v", r34)
	}
}

func TestFig2ASOutage(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)
	mask := NewMask()
	mask.FailAS(s.as4)
	t4 := e.ComputeOrigin(s.as4, mask)
	if t4.Size() != 0 {
		t.Errorf("failed origin still reachable: %d entries", t4.Size())
	}
	// Other origins unaffected except routes through AS4 (there are none).
	t2 := e.ComputeOrigin(s.as2, mask)
	if !t2.Has(s.as1) || !t2.Has(s.as3) {
		t.Error("unrelated reachability lost")
	}
}

func TestFig2LinkOutage(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)
	// De-peer AS1-AS2 at F2 only (link-level incident).
	var linkID int = -1
	for _, l := range s.w.LinksOf(1) {
		if l.Involves(2) && l.Facility == s.f2 {
			linkID = l.ID
		}
	}
	if linkID < 0 {
		t.Fatal("link not found")
	}
	mask := NewMask()
	mask.FailLink(linkID)
	t2 := e.ComputeOrigin(s.as2, mask)
	r12, _ := e.Route(t2, s.as1)
	if r12 == nil || r12.Links[0].Facility != s.f1 {
		t.Errorf("AS1->AS2 should use F1 after de-peering: %+v", r12)
	}
}

func TestValleyFreeProperty(t *testing.T) {
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := New(w)
	// Sample origins; verify every reconstructed route's class sequence is
	// provider* peer? customer* self (checked via entry classes: walking
	// toward the origin, classes never increase, and ClassPeer appears at
	// most once).
	count := 0
	for i, a := range w.ASes {
		if i%17 != 0 {
			continue
		}
		tbl := e.ComputeOrigin(a.ASN, nil)
		for _, v := range w.ASes {
			r, ok := e.Route(tbl, v.ASN)
			if !ok {
				continue
			}
			count++
			prev := uint8(ClassNone)
			peers := 0
			for _, hop := range r.Path {
				c := tbl.Class(hop)
				if c == ClassNone {
					t.Fatalf("on-path AS %v has no entry", hop)
				}
				if prev != ClassNone && c > prev {
					t.Fatalf("class increased along path %v (origin %v)", r.Path, a.ASN)
				}
				if c == ClassPeer {
					peers++
				}
				prev = c
			}
			if peers > 1 {
				t.Fatalf("path %v crosses %d peer-class hops", r.Path, peers)
			}
			if r.Path.HasLoop() {
				t.Fatalf("loop in path %v", r.Path)
			}
		}
	}
	if count == 0 {
		t.Fatal("no routes checked")
	}
}

func TestGeneratedWorldReachability(t *testing.T) {
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := New(w)
	// Every AS must reach a tier-1 origin (the core is universally visible).
	var tier1 bgp.ASN
	for _, a := range w.ASes {
		if a.Type == topology.Tier1 {
			tier1 = a.ASN
			break
		}
	}
	tbl := e.ComputeOrigin(tier1, nil)
	for _, a := range w.ASes {
		if !tbl.Has(a.ASN) {
			t.Errorf("%v cannot reach tier1 %v", a.ASN, tier1)
		}
	}
}

func TestDeterministicComputation(t *testing.T) {
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := New(w)
	origin := w.ASes[10].ASN
	t1 := e.ComputeOrigin(origin, nil)
	t2 := e.ComputeOrigin(origin, nil)
	for _, a := range w.ASes {
		r1, ok1 := e.Route(t1, a.ASN)
		r2, ok2 := e.Route(t2, a.ASN)
		if ok1 != ok2 {
			t.Fatalf("reachability differs for %v", a.ASN)
		}
		if ok1 && !r1.Equal(r2) {
			t.Fatalf("route differs for %v: %v vs %v", a.ASN, r1.Path, r2.Path)
		}
	}
}

func TestMaskBasics(t *testing.T) {
	m := NewMask()
	if !m.Empty() {
		t.Error("new mask not empty")
	}
	m.FailFacility(3)
	m.FailIXP(2)
	m.FailLink(7)
	m.FailAS(42)
	if m.Empty() {
		t.Error("mask with failures reports empty")
	}
	c := m.Clone()
	m.RestoreFacility(3)
	m.RestoreIXP(2)
	m.RestoreLink(7)
	m.RestoreAS(42)
	if !m.Empty() {
		t.Error("restore incomplete")
	}
	if c.Empty() {
		t.Error("clone shares state with original")
	}
}

func TestAffectedOriginsAndDiff(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)
	base := e.ComputeAll(nil)

	// Links housed in F2.
	failedLinks := make(map[int]bool)
	for _, l := range s.w.Links {
		if l.Facility == s.f2 || l.AFac == s.f2 || l.BFac == s.f2 {
			failedLinks[l.ID] = true
		}
	}
	affected := base.AffectedOrigins(failedLinks)
	if len(affected) == 0 {
		t.Fatal("no affected origins for F2 outage")
	}
	// AS2 and AS4 must be among them (AS1->AS2 via F2; AS2->AS4 via IX1@F2).
	hasAS := func(list []bgp.ASN, a bgp.ASN) bool {
		for _, x := range list {
			if x == a {
				return true
			}
		}
		return false
	}
	if !hasAS(affected, s.as2) || !hasAS(affected, s.as4) {
		t.Errorf("affected = %v, want AS2 and AS4", affected)
	}

	mask := NewMask()
	mask.FailFacility(s.f2)
	newT4 := e.ComputeOrigin(s.as4, mask)
	changes := e.DiffTables(base.Tables[s.as4], newT4, []bgp.ASN{s.as1, s.as2, s.as3})
	// AS2's route to AS4 changed; AS3's did not; AS1's route to AS4 goes
	// via AS10 transit in both states.
	foundAS2 := false
	for _, c := range changes {
		if c.Vantage == s.as2 {
			foundAS2 = true
			if c.Old == nil || c.New == nil {
				t.Errorf("AS2 change should be a reroute: %+v", c)
			}
		}
		if c.Vantage == s.as3 {
			t.Errorf("AS3 route should be unchanged: %+v", c)
		}
	}
	if !foundAS2 {
		t.Error("AS2 reroute not detected")
	}
}

func TestDiffWithdrawal(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)
	old := e.ComputeOrigin(s.as4, nil)
	mask := NewMask()
	mask.FailAS(s.as4)
	gone := e.ComputeOrigin(s.as4, mask)
	changes := e.DiffTables(old, gone, []bgp.ASN{s.as1, s.as2, s.as3})
	if len(changes) != 3 {
		t.Fatalf("changes = %d, want 3 withdrawals", len(changes))
	}
	for _, c := range changes {
		if c.New != nil {
			t.Errorf("expected withdrawal, got %+v", c.New)
		}
	}
}

func TestRouteOnUnknownVantage(t *testing.T) {
	s := buildFig2(t)
	e := New(s.w)
	tbl := e.ComputeOrigin(s.as2, nil)
	if _, ok := e.Route(tbl, 999); ok {
		t.Error("route from unknown vantage succeeded")
	}
	unknown := e.ComputeOrigin(999, nil)
	if unknown.Size() != 0 {
		t.Error("unknown origin produced routes")
	}
}

// TestSeveredMatchesLinkUp checks the per-call severed-link set that
// ComputeOrigin derives from the index against Mask.LinkUp, link by link,
// for every facility, every IXP, and mixed masks of links and ASes.
func TestSeveredMatchesLinkUp(t *testing.T) {
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := New(w)
	var masks []*Mask
	for _, f := range w.Map.Facilities() {
		m := NewMask()
		m.FailFacility(f.ID)
		masks = append(masks, m)
	}
	for _, ix := range w.Map.IXPs() {
		m := NewMask()
		m.FailIXP(ix.ID)
		masks = append(masks, m)
	}
	for i := 0; i < 20; i++ {
		m := NewMask()
		m.FailLink(i * 37 % len(w.Links))
		m.FailAS(w.ASes[i*11%len(w.ASes)].ASN)
		m.FailFacility(w.Map.Facilities()[i%len(w.Map.Facilities())].ID)
		m.FailLink(len(w.Links) + i) // no such link
		masks = append(masks, m)
	}
	for i, m := range masks {
		cut := e.severed(m)
		for _, l := range w.Links {
			if cut[l.ID] == m.LinkUp(l) {
				t.Fatalf("mask %d: link %d severed=%v, LinkUp=%v", i, l.ID, cut[l.ID], m.LinkUp(l))
			}
		}
	}
	if e.severed(NewMask()) != nil {
		t.Error("empty mask severs links")
	}
}
