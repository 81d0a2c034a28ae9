package routing

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/topology"
)

// entry is one AS's chosen route toward an origin.
type entry struct {
	link  *topology.Interconnect // link to next (nil at the origin)
	next  int32                  // AS index of the next hop toward the origin
	plen  uint16                 // AS-level hop count to the origin
	class uint8                  // ClassNone: no route
}

// Table holds every AS's best route toward one origin under one mask.
type Table struct {
	Origin  bgp.ASN
	ix      *index
	entries []entry // by AS index
}

// lookup returns asn's entry, ok=false if asn has no route.
func (t *Table) lookup(asn bgp.ASN) (entry, bool) {
	i, ok := t.ix.of[asn]
	if !ok || t.entries[i].class == ClassNone {
		return entry{}, false
	}
	return t.entries[i], true
}

// Has reports whether asn has any route to the origin.
func (t *Table) Has(asn bgp.ASN) bool {
	_, ok := t.lookup(asn)
	return ok
}

// Size returns the number of ASes with a route.
func (t *Table) Size() int {
	n := 0
	for _, e := range t.entries {
		if e.class != ClassNone {
			n++
		}
	}
	return n
}

// NextHop returns the next hop and link asn uses, ok=false if unreachable.
// At the origin it returns (0, nil, true).
func (t *Table) NextHop(asn bgp.ASN) (bgp.ASN, *topology.Interconnect, bool) {
	e, ok := t.lookup(asn)
	if !ok {
		return 0, nil, false
	}
	if e.link == nil {
		return 0, nil, true
	}
	return t.ix.asns[e.next], e.link, true
}

// Class returns the route class asn's entry holds (ClassNone if
// unreachable).
func (t *Table) Class(asn bgp.ASN) uint8 {
	e, ok := t.lookup(asn)
	if !ok {
		return ClassNone
	}
	return e.class
}

// usesAny reports whether any AS's chosen route crosses a link in the set.
func (t *Table) usesAny(in func(id int) bool) bool {
	for _, e := range t.entries {
		if e.link != nil && in(e.link.ID) {
			return true
		}
	}
	return false
}

// Route is a fully reconstructed path from a vantage AS to the origin.
type Route struct {
	Path        bgp.Path                 // vantage first, origin last
	Links       []*topology.Interconnect // Links[i] connects Path[i] and Path[i+1]
	Communities bgp.Communities          // accumulated location + RS communities
}

// Equal reports whether two routes are identical in path and communities.
func (r *Route) Equal(other *Route) bool {
	if r == nil || other == nil {
		return r == other
	}
	if !r.Path.Equal(other.Path) {
		return false
	}
	if len(r.Links) != len(other.Links) {
		return false
	}
	for i := range r.Links {
		if r.Links[i].ID != other.Links[i].ID {
			return false
		}
	}
	return r.Communities.Equal(other.Communities)
}

// index is the dense view of a world that an Engine computes over: ASes
// numbered in ascending ASN order (so comparing indices compares ASNs), the
// links split by relationship with their endpoints' indices, and which
// links each facility and IXP carries. It is read-only once built.
type index struct {
	asns     []bgp.ASN // AS index -> ASN, ascending
	of       map[bgp.ASN]int32
	none     []entry // one ClassNone entry per AS, copied into new tables
	nLinks   int
	c2p, p2p []ilink                   // in w.Links order
	facLinks map[colo.FacilityID][]int // link IDs a facility outage severs
	ixpLinks map[colo.IXPID][]int      // link IDs an IXP outage severs
}

// ilink is a link with its endpoints' AS indices (a is the customer on a
// customer-provider link).
type ilink struct {
	l        *topology.Interconnect
	id, a, b int32
}

func newIndex(w *topology.World) *index {
	ix := &index{
		asns:     make([]bgp.ASN, len(w.ASes)),
		of:       make(map[bgp.ASN]int32, len(w.ASes)),
		none:     make([]entry, len(w.ASes)),
		nLinks:   len(w.Links),
		facLinks: make(map[colo.FacilityID][]int),
		ixpLinks: make(map[colo.IXPID][]int),
	}
	for i, a := range w.ASes { // sorted by ASN
		ix.asns[i], ix.of[a.ASN] = a.ASN, int32(i)
		ix.none[i] = entry{class: ClassNone}
	}
	// The facilities and IXPs whose failure severs each link, as LinkUp
	// decides it.
	for _, l := range w.Links {
		a, okA := ix.of[l.A]
		b, okB := ix.of[l.B]
		if !okA || !okB {
			panic(fmt.Sprintf("routing: link %d joins an AS missing from the world", l.ID))
		}
		k := ilink{l: l, id: int32(l.ID), a: a, b: b}
		switch l.Rel {
		case topology.RelC2P:
			ix.c2p = append(ix.c2p, k)
		case topology.RelP2P:
			ix.p2p = append(ix.p2p, k)
		}
		facs := []colo.FacilityID{l.Facility}
		if l.IXP != 0 {
			ix.ixpLinks[l.IXP] = append(ix.ixpLinks[l.IXP], l.ID)
			facs = append(facs, l.AFac, l.BFac)
		}
		for _, f := range facs {
			if f != 0 {
				ix.facLinks[f] = append(ix.facLinks[f], l.ID)
			}
		}
	}
	return ix
}

// severed returns the set of links the mask takes down, by link ID, or nil
// when it takes none down: the same links for which Mask.LinkUp is false.
func (e *Engine) severed(m *Mask) []bool {
	if m.Empty() {
		return nil
	}
	cut := make([]bool, e.ix.nLinks)
	set := func(id int) {
		if id >= 0 && id < len(cut) {
			cut[id] = true
		}
	}
	for id, down := range m.Links {
		if down {
			set(id)
		}
	}
	for a, down := range m.ASes {
		if down {
			for _, l := range e.w.LinksOf(a) {
				set(l.ID)
			}
		}
	}
	for f, down := range m.Facilities {
		if down {
			for _, id := range e.ix.facLinks[f] {
				set(id)
			}
		}
	}
	for x, down := range m.IXPs {
		if down {
			for _, id := range e.ix.ixpLinks[x] {
				set(id)
			}
		}
	}
	return cut
}

// Engine computes routes over a world.
type Engine struct {
	w  *topology.World
	ix *index
}

// New returns an engine over w. It indexes w's ASes and links once, so the
// world must be complete (every AddAS and Connect done) by then, with every
// link joining two of its ASes; later additions are invisible to the
// engine.
func New(w *topology.World) *Engine { return &Engine{w: w, ix: newIndex(w)} }

// World returns the underlying topology.
func (e *Engine) World() *topology.World { return e.w }

// better reports whether candidate c beats incumbent i. Preference: class,
// then path length, then link kind (PNI > bilateral > multilateral >
// remote), then lower neighbor ASN (AS indices are in ASN order), then
// lower link ID. Any route beats ClassNone.
func better(c, i *entry) bool {
	if c.class != i.class {
		return c.class < i.class
	}
	if c.plen != i.plen {
		return c.plen < i.plen
	}
	if c.link != nil && i.link != nil && c.link.Kind != i.link.Kind {
		return c.link.Kind < i.link.Kind
	}
	if c.next != i.next {
		return c.next < i.next
	}
	if c.link != nil && i.link != nil {
		return c.link.ID < i.link.ID
	}
	return false
}

// ComputeOrigin computes every AS's best valley-free route toward origin
// under the mask, using the three-phase relaxation. Links the mask severs
// are skipped; the rest are visited in w.Links order.
func (e *Engine) ComputeOrigin(origin bgp.ASN, mask *Mask) *Table {
	t := &Table{Origin: origin, ix: e.ix, entries: slices.Clone(e.ix.none)}
	if mask == nil {
		mask = NewMask()
	}
	if mask.ASes[origin] {
		return t
	}
	if _, ok := e.w.AS(origin); !ok {
		return t
	}
	ent := t.entries
	oi := e.ix.of[origin]
	ent[oi] = entry{next: oi, class: ClassSelf}
	cut := e.severed(mask)
	up := func(k ilink) bool { return cut == nil || !cut[k.id] }

	// Phase 1 — up: propagate along customer→provider edges until fixpoint.
	// Only self/customer routes travel up.
	for changed := true; changed; {
		changed = false
		for _, k := range e.ix.c2p {
			if ent[k.a].class > ClassCustomer || !up(k) {
				continue
			}
			cand := entry{next: k.a, link: k.l, class: ClassCustomer, plen: ent[k.a].plen + 1}
			if better(&cand, &ent[k.b]) {
				ent[k.b] = cand
				changed = true
			}
		}
	}

	// Phase 2 — across: each peer link crosses once. Only self/customer
	// routes are exported over peer links, so a peer route never chains
	// across two peer links. Applying candidates in place equals computing
	// them all against the up-phase state first: a peer route only replaces
	// ClassNone or another peer route, and neither is exported here.
	for _, k := range e.ix.p2p {
		if min(ent[k.a].class, ent[k.b].class) <= ClassCustomer && up(k) {
			offerPeer(ent, k.l, k.a, k.b)
			offerPeer(ent, k.l, k.b, k.a)
		}
	}

	// Phase 3 — down: propagate along provider→customer edges until
	// fixpoint. Providers export everything to customers; a provider route
	// never beats a self, customer or peer one.
	for changed := true; changed; {
		changed = false
		for _, k := range e.ix.c2p {
			if ent[k.b].class == ClassNone || ent[k.a].class < ClassProvider || !up(k) {
				continue
			}
			cand := entry{next: k.b, link: k.l, class: ClassProvider, plen: ent[k.b].plen + 1}
			if better(&cand, &ent[k.a]) {
				ent[k.a] = cand
				changed = true
			}
		}
	}
	return t
}

// offerPeer offers from's route to to over peer link l, if from exports it.
func offerPeer(ent []entry, l *topology.Interconnect, from, to int32) {
	if ent[from].class > ClassCustomer {
		return
	}
	cand := entry{next: from, link: l, class: ClassPeer, plen: ent[from].plen + 1}
	if better(&cand, &ent[to]) {
		ent[to] = cand
	}
}

// Route reconstructs the full route from vantage toward the table's origin,
// including the communities each on-path AS attaches at its ingress and the
// route-server redistribution communities of multilateral hops. Communities
// propagate from where they are attached toward the vantage; any
// intermediate AS that scrubs foreign communities (StripsForeign) removes
// everything attached closer to the origin, which is why location
// communities reach collectors on only about half of all paths.
func (e *Engine) Route(t *Table, vantage bgp.ASN) (*Route, bool) {
	ent, ok := t.lookup(vantage)
	if !ok {
		return nil, false
	}
	r := &Route{Path: bgp.Path{vantage}}
	cur := vantage
	// True while no AS between the vantage and the current hop
	// (exclusive) scrubs foreign communities.
	visible := true
	for ent.link != nil {
		l := ent.link
		r.Links = append(r.Links, l)
		// cur received this route from ent.next over l: cur's ingress
		// tagging applies. The tagging AS's own community is visible iff
		// no downstream re-announcer scrubbed it.
		if visible {
			if comm, _, ok := e.w.IngressCommunity(cur, l); ok {
				r.Communities = append(r.Communities, comm)
			}
			if l.Kind == topology.Multilateral {
				if rs := e.w.RSASNOf(l.IXP); rs != 0 {
					r.Communities = append(r.Communities, bgp.MakeCommunity(uint16(rs), topology.RSCommunityLow))
				}
			}
		}
		if a, ok := e.w.AS(cur); ok && a.StripsForeign {
			// cur scrubs everything attached upstream of itself; its own
			// ingress tag (added above) already passed.
			visible = false
		}
		cur = e.ix.asns[ent.next]
		ent = t.entries[ent.next]
		r.Path = append(r.Path, cur)
		if len(r.Path) > maxHops {
			return nil, false // defensive bound; tables never produce cycles
		}
	}
	r.Communities = r.Communities.Normalize()
	return r, true
}

// maxHops bounds a reconstructed path; tables never produce cycles.
const maxHops = 64

// sameChain reports whether vantage follows the same (next hop, link) chain
// to the origin in two tables of one engine, or has no route in either. A
// Route is a function of that chain, so its routes are equal.
func sameChain(a, b *Table, vantage bgp.ASN) bool {
	if a == nil || b == nil || a.ix != b.ix {
		return false
	}
	v, ok := a.ix.of[vantage]
	if !ok {
		return false
	}
	for hop := 0; hop <= maxHops; hop++ {
		ea, eb := a.entries[v], b.entries[v]
		if ea.class == ClassNone || eb.class == ClassNone {
			return ea.class == eb.class
		}
		if ea.link != eb.link || ea.next != eb.next {
			return false
		}
		if ea.link == nil {
			return true
		}
		v = ea.next
	}
	return false
}

// RIB is a set of per-origin tables under one mask.
type RIB struct {
	Tables map[bgp.ASN]*Table
}

// ComputeOrigins computes tables for the given origins concurrently
// (results are independent, so parallelism preserves determinism).
func (e *Engine) ComputeOrigins(origins []bgp.ASN, mask *Mask) *RIB {
	rib := &RIB{Tables: make(map[bgp.ASN]*Table, len(origins))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, o := range origins {
		wg.Add(1)
		go func(origin bgp.ASN) {
			defer wg.Done()
			sem <- struct{}{}
			t := e.ComputeOrigin(origin, mask)
			<-sem
			mu.Lock()
			rib.Tables[origin] = t
			mu.Unlock()
		}(o)
	}
	wg.Wait()
	return rib
}

// ComputeAll computes tables for every AS in the world.
func (e *Engine) ComputeAll(mask *Mask) *RIB {
	origins := make([]bgp.ASN, 0, len(e.w.ASes))
	for _, a := range e.w.ASes {
		origins = append(origins, a.ASN)
	}
	return e.ComputeOrigins(origins, mask)
}

// AffectedOrigins returns the origins whose current tables route any AS
// over any of the given links — the candidates for recomputation after a
// failure or restoration touching those links.
func (r *RIB) AffectedOrigins(linkIDs map[int]bool) []bgp.ASN {
	n := 0
	for id := range linkIDs {
		n = max(n, id+1)
	}
	touched := make([]bool, n)
	for id, on := range linkIDs {
		if id >= 0 {
			touched[id] = on
		}
	}
	in := func(id int) bool { return id < n && touched[id] }
	var out []bgp.ASN
	for origin, t := range r.Tables {
		if t.usesAny(in) {
			out = append(out, origin)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Change is one route difference at a vantage AS for one origin.
type Change struct {
	Origin  bgp.ASN
	Vantage bgp.ASN
	Old     *Route // nil: newly reachable
	New     *Route // nil: withdrawn
}

// DiffTables compares two tables for the same origin at the given vantage
// points and returns the route-level changes. A vantage whose hop chain is
// the same in both tables is skipped without building its routes.
func (e *Engine) DiffTables(old, new_ *Table, vantages []bgp.ASN) []Change {
	var out []Change
	for _, v := range vantages {
		if sameChain(old, new_, v) {
			continue
		}
		var or, nr *Route
		if old != nil {
			or, _ = e.Route(old, v)
		}
		if new_ != nil {
			nr, _ = e.Route(new_, v)
		}
		if or == nil && nr == nil {
			continue
		}
		if or.Equal(nr) {
			continue
		}
		origin := bgp.ASN(0)
		if old != nil {
			origin = old.Origin
		} else if new_ != nil {
			origin = new_.Origin
		}
		out = append(out, Change{Origin: origin, Vantage: v, Old: or, New: nr})
	}
	return out
}
