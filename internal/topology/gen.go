package topology

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/geo"
	"kepler/internal/registry"
)

// Config parameterizes world generation.
type Config struct {
	Seed int64

	Tier1s, Tier2s, Contents, Stubs int
	Facilities, IXPs                int

	// CommunityFraction is the probability a tier-2 AS uses location
	// communities; other tiers derive from it. DocumentFraction is the
	// probability a community user publishes its scheme.
	CommunityFraction float64
	DocumentFraction  float64
	// CityGranularityFraction of schemes tag at city granularity (the
	// majority per Section 3.3); the rest tag facilities/IXPs.
	CityGranularityFraction float64
	// RemotePeerFraction of IXP memberships connect via layer-2 carriers
	// from another city (Castro et al. estimate ~20% at large IXPs).
	RemotePeerFraction float64
	// SiblingFraction of tier-2/content ASes share an organization with
	// another AS.
	SiblingFraction float64

	Collectors          int
	VantagePerCollector int
}

// DefaultConfig is a laptop-sized world adequate for tests and examples.
func DefaultConfig() Config {
	return Config{
		Seed:                    1,
		Tier1s:                  4,
		Tier2s:                  40,
		Contents:                16,
		Stubs:                   140,
		Facilities:              60,
		IXPs:                    18,
		CommunityFraction:       0.75,
		DocumentFraction:        0.85,
		CityGranularityFraction: 0.55,
		RemotePeerFraction:      0.20,
		SiblingFraction:         0.08,
		Collectors:              3,
		VantagePerCollector:     10,
	}
}

// tier1ASNs gives the generated tier-1s recognizable numbers.
var tier1ASNs = []bgp.ASN{3356, 1299, 2914, 3257, 6762, 6453, 3320, 701, 174, 6461}

var facilityOperators = []string{
	"Equinix", "Telehouse", "Interxion", "Telecity", "Digital Realty",
	"Coresite", "Global Switch", "NTT Facilities", "CyrusOne", "Iron Mountain",
}

// genFacility is the pre-ID facility being assembled.
type genFacility struct {
	truth   registry.FacilityTruth
	city    geo.City
	members map[bgp.ASN]bool
}

// genIXP is the pre-ID IXP being assembled.
type genIXP struct {
	truth   registry.IXPTruth
	city    geo.City
	fabIdx  []int // indices into gen facilities
	members map[bgp.ASN]bool
	rsASN   bgp.ASN
}

// Generate builds a world from the config. Generation is deterministic.
func Generate(cfg Config) (*World, error) {
	gw := geo.DefaultWorld()
	cities := gw.Cities()
	if len(cities) == 0 {
		return nil, errNoCities
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// --- facilities, Zipf-ish concentration in hub cities ---
	// Hub order: interleave Europe and North America first (matching the
	// real peering ecosystem), then the rest.
	hubs := hubOrder(cities)
	facs := make([]*genFacility, 0, cfg.Facilities)
	for i := 0; i < cfg.Facilities; i++ {
		// city rank ~ Zipf: repeatedly halve the candidate window.
		rank := 0
		for rank < len(hubs)-1 && rng.Float64() < 0.72 {
			rank = rng.Intn(len(hubs))
			break
		}
		city := hubs[rank%len(hubs)]
		op := facilityOperators[rng.Intn(len(facilityOperators))]
		f := &genFacility{
			city:    city,
			members: make(map[bgp.ASN]bool),
			truth: registry.FacilityTruth{
				Name:     fmt.Sprintf("%s %s %d", op, city.Name, i+1),
				Operator: op,
				Addr: colo.Address{
					Street:   fmt.Sprintf("%d Peering Way", 100+i),
					Postcode: fmt.Sprintf("P%04d", i+1),
					Country:  city.Country,
				},
				City: city.Name,
			},
		}
		facs = append(facs, f)
	}
	facsInCity := make(map[geo.CityID][]int)
	for i, f := range facs {
		facsInCity[f.city.ID] = append(facsInCity[f.city.ID], i)
	}

	// --- IXPs in cities that have facilities ---
	var ixps []*genIXP
	cityList := make([]geo.CityID, 0, len(facsInCity))
	for c := range facsInCity {
		cityList = append(cityList, c)
	}
	sort.Slice(cityList, func(i, j int) bool { return cityList[i] < cityList[j] })
	// Prefer cities with many facilities for the big exchanges.
	sort.SliceStable(cityList, func(i, j int) bool {
		return len(facsInCity[cityList[i]]) > len(facsInCity[cityList[j]])
	})
	for i := 0; i < cfg.IXPs && len(cityList) > 0; i++ {
		cid := cityList[i%len(cityList)]
		city, _ := gw.City(cid)
		candidates := facsInCity[cid]
		nFab := 1
		if len(candidates) > 1 {
			nFab = 1 + rng.Intn(minInt(3, len(candidates)))
		}
		fabIdx := pickN(rng, candidates, nFab)
		name := ixpName(city, i)
		ix := &genIXP{
			city:    city,
			fabIdx:  fabIdx,
			members: make(map[bgp.ASN]bool),
			rsASN:   bgp.ASN(59000 + i),
			truth: registry.IXPTruth{
				Name: name,
				URL:  fmt.Sprintf("https://www.%s.example.net", fmt.Sprintf("ix%d", i+1)),
				City: city.Name,
				ASNs: []bgp.ASN{bgp.ASN(59000 + i)},
				LANs: []netip.Prefix{
					netip.PrefixFrom(netip.AddrFrom4([4]byte{185, byte(i + 1), 0, 0}), 22),
					netip.PrefixFrom(netip.AddrFrom16(v6LAN(i)), 48),
				},
			},
		}
		for _, fi := range fabIdx {
			ix.truth.FacilityAddrs = append(ix.truth.FacilityAddrs, facs[fi].truth.Addr)
		}
		ixps = append(ixps, ix)
	}
	ixpsInCity := make(map[geo.CityID][]int)
	for i, ix := range ixps {
		ixpsInCity[ix.city.ID] = append(ixpsInCity[ix.city.ID], i)
	}

	// --- ASes ---
	var ases []*AS
	addAS := func(a *AS) { ases = append(ases, a) }

	prefixIdx := 0
	nextPrefix := func() netip.Prefix {
		// 20.0.0.0 upward in /24 steps: globally routable, non-bogon.
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{
			byte(20 + prefixIdx>>16), byte(prefixIdx >> 8), byte(prefixIdx), 0,
		}), 24)
		prefixIdx++
		return p
	}
	prefix6Idx := 0
	nextPrefix6 := func() netip.Prefix {
		var b [16]byte
		b[0], b[1] = 0x2a, 0x10
		b[2], b[3] = byte(prefix6Idx>>8), byte(prefix6Idx)
		prefix6Idx++
		return netip.PrefixFrom(netip.AddrFrom16(b), 32)
	}

	pickCity := func() geo.City { return hubs[rng.Intn(len(hubs))] }

	// Tier-1s: global footprint.
	for i := 0; i < cfg.Tier1s; i++ {
		asn := tier1ASNs[i%len(tier1ASNs)]
		if i >= len(tier1ASNs) {
			asn = bgp.ASN(2800 + i)
		}
		a := &AS{
			ASN: asn, Type: Tier1,
			Name:     fmt.Sprintf("Backbone-%d", i+1),
			OrgName:  fmt.Sprintf("Backbone %d Communications Inc", i+1),
			HomeCity: hubs[i%len(hubs)].ID,
		}
		nPfx := 4 + rng.Intn(3)
		for p := 0; p < nPfx; p++ {
			a.Prefixes = append(a.Prefixes, nextPrefix())
		}
		a.Prefixes6 = append(a.Prefixes6, nextPrefix6())
		addAS(a)
	}
	for i := 0; i < cfg.Tier2s; i++ {
		city := pickCity()
		a := &AS{
			ASN: bgp.ASN(6000 + i), Type: Tier2,
			Name:     fmt.Sprintf("Regional-%d", i+1),
			OrgName:  fmt.Sprintf("Regional Networks %d Ltd", i+1),
			HomeCity: city.ID,
		}
		nPfx := 2 + rng.Intn(3)
		for p := 0; p < nPfx; p++ {
			a.Prefixes = append(a.Prefixes, nextPrefix())
		}
		if rng.Float64() < 0.6 {
			a.Prefixes6 = append(a.Prefixes6, nextPrefix6())
		}
		addAS(a)
	}
	for i := 0; i < cfg.Contents; i++ {
		city := pickCity()
		a := &AS{
			ASN: bgp.ASN(15000 + i), Type: Content,
			Name:     fmt.Sprintf("CDN-%d", i+1),
			OrgName:  fmt.Sprintf("Content Delivery %d LLC", i+1),
			HomeCity: city.ID,
		}
		nPfx := 2 + rng.Intn(4)
		for p := 0; p < nPfx; p++ {
			a.Prefixes = append(a.Prefixes, nextPrefix())
		}
		if rng.Float64() < 0.9 {
			a.Prefixes6 = append(a.Prefixes6, nextPrefix6())
		}
		addAS(a)
	}
	for i := 0; i < cfg.Stubs; i++ {
		city := pickCity()
		a := &AS{
			ASN: bgp.ASN(30000 + i), Type: Stub,
			Name:     fmt.Sprintf("Edge-%d", i+1),
			OrgName:  fmt.Sprintf("Edge Access %d BV", i+1),
			HomeCity: city.ID,
		}
		a.Prefixes = append(a.Prefixes, nextPrefix())
		if rng.Float64() < 0.35 {
			a.Prefixes6 = append(a.Prefixes6, nextPrefix6())
		}
		addAS(a)
	}

	// Siblings: merge some org names pairwise among tier2/content.
	var orgCandidates []*AS
	for _, a := range ases {
		if a.Type == Tier2 || a.Type == Content {
			orgCandidates = append(orgCandidates, a)
		}
	}
	for i := 0; i+1 < len(orgCandidates); i += 2 {
		if rng.Float64() < cfg.SiblingFraction*2 {
			orgCandidates[i+1].OrgName = orgCandidates[i].OrgName
		}
	}

	// --- facility presence (indices into facs) ---
	presence := make(map[bgp.ASN][]int)
	addPresence := func(a *AS, fi int) {
		for _, x := range presence[a.ASN] {
			if x == fi {
				return
			}
		}
		presence[a.ASN] = append(presence[a.ASN], fi)
		facs[fi].members[a.ASN] = true
	}
	for _, a := range ases {
		var want int
		switch a.Type {
		case Tier1:
			want = len(facs) / 2
		case Tier2:
			want = 2 + rng.Intn(6)
		case Content:
			want = 3 + rng.Intn(8)
		case Stub:
			want = rng.Intn(3)
		}
		// Prefer facilities in the home city, then anywhere.
		home := facsInCity[a.HomeCity]
		for _, fi := range pickN(rng, home, minInt(len(home), 1+want/3)) {
			addPresence(a, fi)
		}
		for len(presence[a.ASN]) < want {
			addPresence(a, rng.Intn(len(facs)))
		}
	}

	// --- IXP memberships ---
	memberships := make(map[bgp.ASN][]IXPMembership) // with gen indices in PortFacility via placeholder
	type memPlace struct {
		ixp    int
		portFi int
		remote bool
		viaRS  bool
	}
	places := make(map[bgp.ASN][]memPlace)
	join := func(a *AS, ixi int, remote bool) {
		ix := ixps[ixi]
		if ix.members[a.ASN] {
			return
		}
		port := ix.fabIdx[rng.Intn(len(ix.fabIdx))]
		if !remote {
			// Local members port at a fabric facility where they colocate,
			// gaining presence if needed.
			addPresence(a, port)
		}
		viaRS := false
		switch a.Type {
		case Stub, Content:
			viaRS = rng.Float64() < 0.8
		case Tier2:
			viaRS = rng.Float64() < 0.5
		}
		ix.members[a.ASN] = true
		places[a.ASN] = append(places[a.ASN], memPlace{ixp: ixi, portFi: port, remote: remote, viaRS: viaRS})
	}
	for _, a := range ases {
		var joins int
		switch a.Type {
		case Tier1:
			joins = rng.Intn(2) // tier1s mostly avoid public peering
		case Tier2:
			joins = 1 + rng.Intn(3)
		case Content:
			joins = 2 + rng.Intn(4)
		case Stub:
			if rng.Float64() < 0.5 {
				joins = 1
			}
		}
		// Prefer IXPs in cities of presence.
		var local []int
		seen := map[int]bool{}
		for _, fi := range presence[a.ASN] {
			for _, ixi := range ixpsInCity[facs[fi].city.ID] {
				if !seen[ixi] {
					seen[ixi] = true
					local = append(local, ixi)
				}
			}
		}
		sort.Ints(local)
		for _, ixi := range pickN(rng, local, minInt(len(local), joins)) {
			join(a, ixi, false)
		}
		for len(places[a.ASN]) < joins && len(ixps) > 0 {
			ixi := rng.Intn(len(ixps))
			remote := rng.Float64() < cfg.RemotePeerFraction*2 // fills are mostly remote
			join(a, ixi, remote)
		}
	}

	// --- community usage ---
	for _, a := range ases {
		var p float64
		switch a.Type {
		case Tier1:
			p = 0.9
		case Tier2:
			p = cfg.CommunityFraction
		case Content:
			p = cfg.CommunityFraction * 0.8
		case Stub:
			p = cfg.CommunityFraction * 0.2
		}
		if rng.Float64() < p {
			a.UsesCommunities = true
			a.Documents = rng.Float64() < cfg.DocumentFraction
			a.TagsIPv6 = rng.Float64() < 0.55
			if rng.Float64() < cfg.CityGranularityFraction {
				a.Granularity = colo.PoPCity
			} else {
				a.Granularity = colo.PoPFacility
			}
		}
		// Community scrubbing is orthogonal to tagging; operators who run
		// community schemes are less inclined to strip them.
		strip := 0.30
		if a.UsesCommunities {
			strip = 0.12
		}
		a.StripsForeign = rng.Float64() < strip
	}

	// --- ground truth + colocation map (IDs become final here) ---
	truth := &registry.GroundTruth{}
	for _, f := range facs {
		ft := f.truth
		ft.Members = sortedMemberList(f.members)
		truth.Facilities = append(truth.Facilities, ft)
	}
	for _, ix := range ixps {
		it := ix.truth
		it.Members = sortedMemberList(ix.members)
		truth.IXPs = append(truth.IXPs, it)
	}
	perfect := registry.SnapshotOptions{
		PeeringDBFacilityCoverage: 1, PeeringDBMemberCoverage: 1,
		DCMapFacilityCoverage: 0, DCMapMemberCoverage: 0,
		PeeringDBIXPMemberCov: 1, EuroIXMemberCov: 0,
	}
	facRecs, ixpRecs := registry.Snapshot(truth, perfect, cfg.Seed)
	builder := colo.NewBuilder(gw)
	for _, r := range facRecs {
		builder.AddFacility(r)
	}
	for _, r := range ixpRecs {
		builder.AddIXP(r)
	}
	cmap := builder.Build()

	// Resolve gen indices to colo IDs.
	facID := make([]colo.FacilityID, len(facs))
	for i, f := range facs {
		id, ok := cmap.FacilityByAddress(f.truth.Addr)
		if !ok {
			return nil, fmt.Errorf("topology: facility %q lost in map build", f.truth.Name)
		}
		facID[i] = id
	}
	ixpID := make([]colo.IXPID, len(ixps))
	for i, ix := range ixps {
		id, ok := cmap.IXPByOperatedASN(ix.rsASN)
		if !ok {
			return nil, fmt.Errorf("topology: IXP %q lost in map build", ix.truth.Name)
		}
		ixpID[i] = id
	}
	for asn, ps := range places {
		for _, p := range ps {
			memberships[asn] = append(memberships[asn], IXPMembership{
				IXP:          ixpID[p.ixp],
				PortFacility: facID[p.portFi],
				Remote:       p.remote,
				ViaRS:        p.viaRS,
			})
		}
	}

	w := &World{
		Cfg:      cfg,
		ASes:     ases,
		byASN:    make(map[bgp.ASN]*AS, len(ases)),
		linksOf:  make(map[bgp.ASN][]*Interconnect),
		originOf: make(map[netip.Prefix]bgp.ASN),
		RSASNs:   make(map[bgp.ASN]colo.IXPID),
		rsOf:     make(map[colo.IXPID]bgp.ASN),
		Map:      cmap,
		Truth:    truth,
		Geo:      gw,
	}
	sort.Slice(w.ASes, func(i, j int) bool { return w.ASes[i].ASN < w.ASes[j].ASN })
	for _, a := range w.ASes {
		w.byASN[a.ASN] = a
		for _, fi := range presence[a.ASN] {
			a.Facilities = append(a.Facilities, facID[fi])
		}
		sort.Slice(a.Facilities, func(i, j int) bool { return a.Facilities[i] < a.Facilities[j] })
		a.Memberships = memberships[a.ASN]
		sort.Slice(a.Memberships, func(i, j int) bool { return a.Memberships[i].IXP < a.Memberships[j].IXP })
		for _, p := range a.Prefixes {
			w.originOf[p] = a.ASN
		}
		for _, p := range a.Prefixes6 {
			w.originOf[p] = a.ASN
		}
	}
	for i, ix := range ixps {
		w.RegisterRS(ix.rsASN, ixpID[i])
	}

	w.buildLinks(rng)
	w.buildCollectors(rng)
	w.buildSchemes()
	return w, nil
}

func hubOrder(cities []geo.City) []geo.City {
	var eu, na, rest []geo.City
	for _, c := range cities {
		switch c.Continent {
		case geo.Europe:
			eu = append(eu, c)
		case geo.NorthAmerica:
			na = append(na, c)
		default:
			rest = append(rest, c)
		}
	}
	out := make([]geo.City, 0, len(cities))
	for i := 0; i < len(eu) || i < len(na); i++ {
		if i < len(eu) {
			out = append(out, eu[i])
		}
		if i < len(na) && i%2 == 0 {
			out = append(out, na[i])
		}
	}
	// Remaining NA cities and the rest trail.
	for i := 0; i < len(na); i += 2 {
		if i+1 < len(na) {
			out = append(out, na[i+1])
		}
	}
	return append(out, rest...)
}

func ixpName(city geo.City, i int) string {
	base := city.Name
	if len(base) > 3 {
		base = base[:3]
	}
	return fmt.Sprintf("%s-IX%d", asUpper(base), i+1)
}

func asUpper(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] &^= 0x20
		}
	}
	return string(b)
}

func v6LAN(i int) [16]byte {
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = 0x07, 0xf8
	b[4], b[5] = byte(i>>8), byte(i)
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func pickN(rng *rand.Rand, pool []int, n int) []int {
	if n >= len(pool) {
		out := make([]int, len(pool))
		copy(out, pool)
		return out
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]int, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

func sortedMemberList(set map[bgp.ASN]bool) []bgp.ASN {
	out := make([]bgp.ASN, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
