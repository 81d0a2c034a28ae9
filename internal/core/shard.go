package core

import (
	"container/heap"
	"slices"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/communities"
)

// popEnd is one tagged (near, far) AS pair a path crosses at a PoP.
type popEnd struct {
	near, far bgp.ASN
}

// pathTag is one currently tagged PoP of a path: the hop ends the
// community bound to it and the instant the tag became continuous (the
// stability clock of Section 4.2).
type pathTag struct {
	pop   colo.PoP
	ends  popEnd
	since time.Time
}

// pathState is the tracked state of one monitored path. Tags live in a
// small slice rather than maps: most paths traverse only a handful of
// tagged PoPs, so linear scans beat map overhead and the slab is recycled
// across announcements instead of being reallocated per update.
type pathState struct {
	tags []pathTag
	// path is the current (deduplicated) AS path; kept so that signal
	// investigation can intersect the old paths of diverted routes and
	// recognize AS-level incidents (Section 4.3).
	path bgp.Path
	// comms is a copy of the communities of the announcement that set tags
	// and path. held says that announcement went through announce and that
	// every tag it kept past the stability window is in the stable
	// baseline: then re-announcing the same route changes nothing but
	// restoration (see apply). A state restored from a checkpoint or taken
	// off the free list is not held, nor is one whose stable entry the bin
	// cleanup removed while it held the tag.
	comms bgp.Communities
	held  bool
}

// find returns the tag for pop, or nil.
func (st *pathState) find(pop colo.PoP) *pathTag {
	for i := range st.tags {
		if st.tags[i].pop == pop {
			return &st.tags[i]
		}
	}
	return nil
}

// tagsHave reports whether tags contains pop.
func tagsHave(tags []pathTag, pop colo.PoP) bool {
	for i := range tags {
		if tags[i].pop == pop {
			return true
		}
	}
	return false
}

// divertRec is one path leaving a PoP within the current bin, in op order.
type divertRec struct {
	key     PathKey
	ends    popEnd
	oldPath bgp.Path
}

// promo schedules a path's promotion into the stable baseline once its tag
// has persisted for the stability window.
type promo struct {
	due   time.Time
	key   PathKey
	pop   colo.PoP
	since time.Time // guards against re-tagging between scheduling and due
}

// promoQueue is a min-heap on due time.
type promoQueue []promo

func (q promoQueue) Len() int           { return len(q) }
func (q promoQueue) Less(i, j int) bool { return q[i].due.Before(q[j].due) }
func (q promoQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *promoQueue) Push(x any)        { *q = append(*q, x.(promo)) }
func (q *promoQueue) Pop() any          { old := *q; n := len(old); p := old[n-1]; *q = old[:n-1]; return p }

// shardWatch is one open outage's (or parked campaign's) restoration
// bookkeeping as the shard sees it between bin closes. waiting and
// signalPops are the tracker's (or the campaign's) own maps, which the
// shard reads and never writes; they change only inside a bin close. The
// shard reports each return it sees, and the bin close's reconciliation
// drops a key reported twice in one bin.
type shardWatch struct {
	epicenter  colo.PoP
	signalPops map[colo.PoP]bool
	waiting    map[PathKey]bool
}

// returnEvent reports that a diverted path re-tagged one of its outage's
// signal PoPs, counting toward restoration (Section 4.4).
type returnEvent struct {
	epicenter colo.PoP
	key       PathKey
	at        time.Time
}

// Free-list caps: recycling is bounded so a burst (a mass withdrawal, a
// divert-heavy bin) does not pin its peak footprint forever. Entries past
// the cap simply go to the GC.
const (
	maxFreeStates = 4096
	maxFreeSets   = 1024
	maxFreeMaps   = 256
	maxFreeRecs   = 1024
)

// pathShard owns the per-path monitoring state (Section 4.2). Each path's
// state transitions depend only on the ops of its own key (plus its peer's
// peer-down ops); only the bin-boundary signal investigation reads across
// paths.
type pathShard struct {
	cfg  Config
	dict *communities.Dictionary
	cmap *colo.Map

	paths map[PathKey]*pathState
	// stable[pop][near] -> set of stable paths with that near-end AS.
	stable map[colo.PoP]map[bgp.ASN]map[PathKey]popEnd
	// pathsOfPeer indexes paths by vantage for session-gap handling.
	pathsOfPeer map[bgp.ASN]map[PathKey]bool
	// pathsContaining counts monitored paths whose AS path traverses each
	// ASN; signal investigation reads it to tell a globally
	// vanishing AS (AS-level incident) from a hub that merely lost one site.
	pathsContaining map[bgp.ASN]int

	promos   promoQueue
	diverted map[colo.PoP]map[bgp.ASN][]divertRec // current bin

	// watches / returns implement restoration tracking between barriers.
	watches []shardWatch
	returns []returnEvent

	// Arena-style recycling of the ingest hot path's short-lived
	// structures. scratchTags/scratchHops are the per-announce working
	// buffers; the free lists hold retired path states, emptied stable key
	// sets, and the previous bins' divert indexes and record slabs.
	scratchTags []pathTag
	scratchHops []communities.TaggedHop
	freeStates  []*pathState
	freeSets    []map[PathKey]popEnd
	freeByNear  []map[bgp.ASN][]divertRec
	freeRecs    [][]divertRec

	// Checkpoint-image bookkeeping (see checkpointer). tracking is off until
	// the pipeline's first capture, so a pipeline that never checkpoints
	// pays one branch per mutation and holds no lists. While it is on, every
	// change to paths or stable notes the path key or stable entry it
	// touched; the next capture re-encodes exactly those and clears the
	// lists. Duplicates are allowed (the capture sorts and compacts).
	tracking    bool
	dirtyPaths  []PathKey
	dirtyStable []stableEntry
}

// stableEntry names one stable-baseline membership: key under (pop, near).
type stableEntry struct {
	pop  colo.PoP
	near bgp.ASN
	key  PathKey
}

// minDirtyBound lets a nearly empty shard track a burst before it overflows.
const minDirtyBound = 256

func newPathShard(cfg Config, dict *communities.Dictionary, cmap *colo.Map) *pathShard {
	return &pathShard{
		cfg:             cfg,
		dict:            dict,
		cmap:            cmap,
		paths:           make(map[PathKey]*pathState),
		stable:          make(map[colo.PoP]map[bgp.ASN]map[PathKey]popEnd),
		pathsOfPeer:     make(map[bgp.ASN]map[PathKey]bool),
		pathsContaining: make(map[bgp.ASN]int),
		diverted:        make(map[colo.PoP]map[bgp.ASN][]divertRec),
	}
}

// newState takes a path state off the free list, or allocates one.
func (s *pathShard) newState() *pathState {
	if n := len(s.freeStates); n > 0 {
		st := s.freeStates[n-1]
		s.freeStates[n-1] = nil
		s.freeStates = s.freeStates[:n-1]
		return st
	}
	return &pathState{}
}

// releaseState retires a path state removed from s.paths, keeping its tag
// slab for reuse. The caller must not hold references to it afterwards.
func (s *pathShard) releaseState(st *pathState) {
	if len(s.freeStates) >= maxFreeStates {
		return
	}
	st.tags = st.tags[:0]
	st.path = nil
	st.comms = st.comms[:0]
	st.held = false
	s.freeStates = append(s.freeStates, st)
}

// newKeySet takes an emptied stable key set off the free list, or
// allocates one.
func (s *pathShard) newKeySet() map[PathKey]popEnd {
	if n := len(s.freeSets); n > 0 {
		set := s.freeSets[n-1]
		s.freeSets[n-1] = nil
		s.freeSets = s.freeSets[:n-1]
		return set
	}
	return make(map[PathKey]popEnd)
}

// touchPath notes that key's checkpoint record changed or disappeared.
func (s *pathShard) touchPath(key PathKey) {
	if s.tracking {
		s.dirtyPaths = append(s.dirtyPaths, key)
		s.boundDirty()
	}
}

// touchStable notes that key joined, left or changed under stable[pop][near].
func (s *pathShard) touchStable(pop colo.PoP, near bgp.ASN, key PathKey) {
	if s.tracking {
		s.dirtyStable = append(s.dirtyStable, stableEntry{pop: pop, near: near, key: key})
		s.boundDirty()
	}
}

// boundDirty gives up tracking once the dirty lists outgrow the live path
// count (a RIB dump or a mass withdrawal between two captures): rebuilding
// the image from the maps is then no dearer than replaying the lists, and
// the lists never hold more than the state they describe.
func (s *pathShard) boundDirty() {
	if len(s.dirtyPaths)+len(s.dirtyStable) > max(len(s.paths), minDirtyBound) {
		s.tracking, s.dirtyPaths, s.dirtyStable = false, nil, nil
	}
}

// apply executes one fanned-out route op. Promotions due at or before the
// op's time run first, so a shard promotes as it would processing each
// record inline.
//
// A held path re-announced with the route it holds (most of a RIB dump)
// takes the fast path: its deduplicated path and communities annotate to
// the tags it has, so no tag is diverted, added or re-timed, the path
// record is unchanged, and every tag past the stability window is already
// stable. Sanitize cannot reject it either: it depends only on the prefix
// (part of the key), the AS set and the loop status, which deduplication
// keeps. Only restoration can still see it.
func (s *pathShard) apply(op *bgpstream.RouteOp) {
	s.runPromotions(op.Time)
	key := PathKey{Peer: op.Peer, Prefix: op.Prefix}
	switch op.Kind {
	case bgpstream.OpPeerDown:
		s.suspendPeer(op.Peer)
	case bgpstream.OpWithdraw:
		s.withdraw(key)
	case bgpstream.OpAnnounce:
		st := s.paths[key]
		if st != nil && st.held && sameDedup(op.Path, st.path) && slices.Equal(op.Communities, st.comms) {
			s.noteReturn(op.Time, key, st.tags)
			return
		}
		if err := bgp.Sanitize(op.Prefix, op.Path); err != nil {
			return
		}
		s.announce(op.Time, key, st, op.Path, op.Communities)
	}
}

// runPromotions moves paths whose tags survived the stability window into
// the stable baseline.
func (s *pathShard) runPromotions(now time.Time) {
	for len(s.promos) > 0 && !s.promos[0].due.After(now) {
		p := heap.Pop(&s.promos).(promo)
		st := s.paths[p.key]
		if st == nil {
			continue
		}
		t := st.find(p.pop)
		if t == nil || !t.since.Equal(p.since) {
			continue // re-tagged since scheduling; a newer promo exists
		}
		s.addStable(p.pop, p.key, t.ends)
	}
}

// announce updates a path with a new tagged route. st is the path's state,
// nil for a path not monitored yet.
func (s *pathShard) announce(at time.Time, key PathKey, st *pathState, path bgp.Path, comms bgp.Communities) {
	if st == nil {
		st = s.newState()
		s.paths[key] = st
		if s.pathsOfPeer[key.Peer] == nil {
			s.pathsOfPeer[key.Peer] = make(map[PathKey]bool)
		}
		s.pathsOfPeer[key.Peer][key] = true
	}
	// Most announcements re-announce the path the state already holds (a
	// RIB dump repeats every route): keep it, deduplicating nothing, and
	// the path counts stay as they are.
	newPath, samePath := st.path, sameDedup(path, st.path)
	if !samePath {
		newPath = path.Dedup()
	}

	hops := s.dict.AnnotateAppend(s.scratchHops[:0], newPath, comms, s.cmap)
	s.scratchHops = hops
	newTags := s.scratchTags[:0]
	for _, h := range hops {
		e := popEnd{near: h.Near, far: h.Far}
		dup := false
		for i := range newTags {
			if newTags[i].pop == h.PoP {
				newTags[i].ends = e // last community for a PoP wins, as before
				dup = true
				break
			}
		}
		if !dup {
			newTags = append(newTags, pathTag{pop: h.PoP, ends: e})
		}
	}

	// PoPs no longer tagged: divert events. A changed community counts as
	// a route change even when the AS path is identical — and vice versa a
	// kept community means no change for that PoP (Section 4.2).
	for i := range st.tags {
		t := &st.tags[i]
		if !tagsHave(newTags, t.pop) {
			s.recordDivert(key, t.pop, t.ends, st.path)
		}
	}
	// Newly tagged PoPs start their stability clock; kept PoPs keep it.
	for i := range newTags {
		nt := &newTags[i]
		if old := st.find(nt.pop); old != nil {
			nt.since = old.since
		} else {
			nt.since = at
			heap.Push(&s.promos, promo{due: at.Add(s.cfg.StableWindow), key: key, pop: nt.pop, since: at})
		}
		if at.Sub(nt.since) >= s.cfg.StableWindow {
			s.addStable(nt.pop, key, nt.ends)
		}
	}
	// Swap the tag slabs: the state keeps newTags; its previous slab
	// becomes the next announce's scratch buffer.
	s.scratchTags = st.tags[:0]
	st.tags = newTags
	if !samePath {
		s.countPath(st.path, -1)
		st.path = newPath
		s.countPath(st.path, +1)
	}
	st.comms = append(st.comms[:0], comms...)
	st.held = true
	s.touchPath(key)

	// A re-tag may return a diverted path to its baseline PoP.
	s.noteReturn(at, key, newTags)
}

// noteReturn checks the shard's outage watches: a waiting path re-tagging a
// signal PoP counts toward restoration and is reported at the next barrier.
// The watches are read-only here, so a path that returns twice in one bin
// is reported twice; the barrier keeps the first report.
func (s *pathShard) noteReturn(at time.Time, key PathKey, newTags []pathTag) {
	for i := range s.watches {
		w := &s.watches[i]
		if !w.waiting[key] {
			continue
		}
		for j := range newTags {
			if w.signalPops[newTags[j].pop] {
				s.returns = append(s.returns, returnEvent{epicenter: w.epicenter, key: key, at: at})
				break
			}
		}
	}
}

// withdraw removes a path entirely (explicit withdrawal).
func (s *pathShard) withdraw(key PathKey) {
	st := s.paths[key]
	if st == nil {
		return
	}
	for i := range st.tags {
		t := &st.tags[i]
		s.recordDivert(key, t.pop, t.ends, st.path)
	}
	s.countPath(st.path, -1)
	delete(s.paths, key)
	if m := s.pathsOfPeer[key.Peer]; m != nil {
		delete(m, key)
	}
	s.releaseState(st)
	s.touchPath(key)
}

// suspendPeer silently drops a peer's paths from monitoring state after a
// collector feed disruption.
func (s *pathShard) suspendPeer(peer bgp.ASN) {
	for key := range s.pathsOfPeer[peer] {
		st := s.paths[key]
		if st == nil {
			continue
		}
		for i := range st.tags {
			s.removeStable(st.tags[i].pop, key)
		}
		s.countPath(st.path, -1)
		delete(s.paths, key)
		s.releaseState(st)
		s.touchPath(key)
	}
	delete(s.pathsOfPeer, peer)
}

// sameDedup reports whether path.Dedup() equals d, without building it.
func sameDedup(path, d bgp.Path) bool {
	n := 0
	for i, a := range path {
		if i > 0 && a == path[i-1] {
			continue
		}
		if n == len(d) || d[n] != a {
			return false
		}
		n++
	}
	return n == len(d)
}

// countPath adjusts pathsContaining for every AS on the path.
func (s *pathShard) countPath(path bgp.Path, delta int) {
	for _, a := range path {
		s.pathsContaining[a] += delta
		if s.pathsContaining[a] <= 0 {
			delete(s.pathsContaining, a)
		}
	}
}

func (s *pathShard) addStable(pop colo.PoP, key PathKey, ends popEnd) {
	byNear := s.stable[pop]
	if byNear == nil {
		byNear = make(map[bgp.ASN]map[PathKey]popEnd)
		s.stable[pop] = byNear
	}
	set := byNear[ends.near]
	if set == nil {
		set = s.newKeySet()
		byNear[ends.near] = set
	}
	// Every re-announcement of a stable path lands here; only a new or
	// changed entry changes the checkpoint.
	if old, ok := set[key]; !ok || old != ends {
		set[key] = ends
		s.touchStable(pop, ends.near, key)
	}
}

func (s *pathShard) removeStable(pop colo.PoP, key PathKey) {
	for near, set := range s.stable[pop] {
		if _, ok := set[key]; ok {
			delete(set, key)
			s.touchStable(pop, near, key)
			if len(set) == 0 {
				delete(s.stable[pop], near)
				if len(s.freeSets) < maxFreeSets {
					//keplervet:ignore maporder free-list recycling: pooled sets are empty, reuse order never reaches output
					s.freeSets = append(s.freeSets, set)
				}
			}
		}
	}
	if len(s.stable[pop]) == 0 {
		delete(s.stable, pop)
	}
}

// recordDivert notes that a stable path left a PoP within the current bin.
// Non-stable paths are transient and ignored.
func (s *pathShard) recordDivert(key PathKey, pop colo.PoP, ends popEnd, oldPath bgp.Path) {
	set := s.stable[pop][ends.near]
	if _, stable := set[key]; !stable {
		return
	}
	byNear := s.diverted[pop]
	if byNear == nil {
		if n := len(s.freeByNear); n > 0 {
			byNear = s.freeByNear[n-1]
			s.freeByNear[n-1] = nil
			s.freeByNear = s.freeByNear[:n-1]
		} else {
			byNear = make(map[bgp.ASN][]divertRec)
		}
		s.diverted[pop] = byNear
	}
	recs, ok := byNear[ends.near]
	if !ok {
		if n := len(s.freeRecs); n > 0 {
			recs = s.freeRecs[n-1]
			s.freeRecs[n-1] = nil
			s.freeRecs = s.freeRecs[:n-1]
		}
	}
	byNear[ends.near] = append(recs, divertRec{key: key, ends: ends, oldPath: oldPath})
}

// stableTotal returns the number of stable paths at pop.
func (s *pathShard) stableTotal(pop colo.PoP) int {
	n := 0
	for _, set := range s.stable[pop] {
		n += len(set)
	}
	return n
}

// takeReturns hands the accumulated return events to the investigator.
func (s *pathShard) takeReturns() []returnEvent {
	out := s.returns
	s.returns = nil
	return out
}

// finishBin applies the end-of-bin cleanup after investigation: diverted
// paths leave the stable baseline (Section 4.2: "after each binning
// interval, we remove the changed paths from the set of stable paths").
// The bin's divert indexes and record slabs are cleared in place and
// recycled rather than reallocated each bin; nothing downstream retains
// them — the investigator deep-copies whatever outlives the barrier, and
// finishBin runs last in the bin-close sequence.
func (s *pathShard) finishBin() {
	for pop, byNear := range s.diverted {
		for near, recs := range byNear {
			for i := range recs {
				s.removeStable(pop, recs[i].key)
				if st := s.paths[recs[i].key]; st != nil {
					// Re-tagged within the bin: the tag may be past the
					// stability window without its entry, which only
					// announce's slow path re-adds.
					st.held = false
				}
				recs[i] = divertRec{} // drop oldPath references
			}
			if len(s.freeRecs) < maxFreeRecs {
				//keplervet:ignore maporder free-list recycling: pooled slabs are emptied, reuse order never reaches output
				s.freeRecs = append(s.freeRecs, recs[:0])
			}
			delete(byNear, near)
		}
		delete(s.diverted, pop)
		if len(s.freeByNear) < maxFreeMaps {
			//keplervet:ignore maporder free-list recycling: pooled maps are cleared, reuse order never reaches output
			s.freeByNear = append(s.freeByNear, byNear)
		}
	}
}
