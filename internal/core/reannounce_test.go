package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/mrt"
)

// shardTwin drives one path shard through apply and a twin through the
// slow path only (Sanitize and announce for every announcement), with the
// same bin barriers, and requires the two to stay equal. The barriers
// stand in for the investigator: due promotions run, every key diverted so
// far waits on a restoration watch of its PoP, returns are taken and the
// bin cleanup runs.
type shardTwin struct {
	t          *testing.T
	cfg        Config
	dict       *communities.Dictionary
	cmap       *colo.Map
	fast, slow *pathShard
	fan        *bgpstream.Fanout
	binEnd     time.Time
	barriers   int
	waiting    map[colo.PoP]map[PathKey]bool

	// gone holds keys a withdraw or a peer-down dropped, recycled those
	// re-announced since: their states came off the free list.
	gone, recycled map[PathKey]bool
	// What the stream exercised: announcements the fast path took, those
	// on a recycled state, and those on a state that was not held.
	fastHits, recycledHits, notHeld int
}

func newShardTwin(t *testing.T, cfg Config, dict *communities.Dictionary, cmap *colo.Map) *shardTwin {
	return &shardTwin{
		t: t, cfg: cfg, dict: dict, cmap: cmap,
		fast:     newPathShard(cfg, dict, cmap),
		slow:     newPathShard(cfg, dict, cmap),
		fan:      bgpstream.NewFanout(1),
		waiting:  make(map[colo.PoP]map[PathKey]bool),
		gone:     make(map[PathKey]bool),
		recycled: make(map[PathKey]bool),
	}
}

// applySlow is apply without the fast path: a state that is not held
// always goes through Sanitize and announce.
func applySlow(s *pathShard, op *bgpstream.RouteOp) {
	if st := s.paths[PathKey{Peer: op.Peer, Prefix: op.Prefix}]; st != nil {
		st.held = false
	}
	s.apply(op)
}

// feed processes recs; every fullEvery-th barrier compares all of the two
// shards' state, the others what a bin changes.
func (w *shardTwin) feed(recs []*mrt.Record, fullEvery int) {
	for _, rec := range recs {
		if w.binEnd.IsZero() {
			w.binEnd = rec.Time.Truncate(w.cfg.BinInterval).Add(w.cfg.BinInterval)
		}
		if !rec.Time.Before(w.binEnd) {
			w.barrier(w.binEnd, w.barriers%fullEvery == 0)
			w.binEnd = rec.Time.Truncate(w.cfg.BinInterval).Add(w.cfg.BinInterval)
		}
		w.fan.Add(rec)
		ops := w.fan.Take(0)
		for i := range ops {
			w.step(&ops[i])
			if w.t.Failed() {
				return
			}
		}
		w.fan.Recycle(0, ops)
	}
	w.barrier(w.binEnd, true)
}

// step applies one op to both shards and compares what it can change.
func (w *shardTwin) step(op *bgpstream.RouteOp) {
	key := PathKey{Peer: op.Peer, Prefix: op.Prefix}
	switch op.Kind {
	case bgpstream.OpPeerDown:
		for k := range w.fast.pathsOfPeer[op.Peer] {
			w.gone[k] = true
		}
	case bgpstream.OpWithdraw:
		if w.fast.paths[key] != nil {
			w.gone[key] = true
		}
	case bgpstream.OpAnnounce:
		switch st := w.fast.paths[key]; {
		case st == nil:
			if w.gone[key] {
				w.recycled[key] = true
			}
		case !st.held:
			w.notHeld++
		case sameDedup(op.Path, st.path) && slices.Equal(op.Communities, st.comms):
			w.fastHits++
			if w.recycled[key] {
				w.recycledHits++
			}
		}
	}
	w.fast.apply(op)
	applySlow(w.slow, op)
	if op.Kind != bgpstream.OpPeerDown {
		w.comparePath(key, w.fast.paths[key], w.slow.paths[key])
	}
	if len(w.fast.promos) != len(w.slow.promos) || len(w.fast.returns) != len(w.slow.returns) {
		w.t.Errorf("op %d (%v %v): %d promotions and %d returns, slow path %d and %d",
			op.Seq, op.Kind, key, len(w.fast.promos), len(w.fast.returns), len(w.slow.promos), len(w.slow.returns))
	}
}

func (w *shardTwin) comparePath(key PathKey, f, s *pathState) {
	switch {
	case f == nil && s == nil:
	case f == nil || s == nil:
		w.t.Errorf("%v: monitored %v, by the slow path %v", key, f != nil, s != nil)
	case !slices.Equal(f.tags, s.tags) || !f.path.Equal(s.path):
		w.t.Errorf("%v: tags %v path %v, slow path tags %v path %v", key, f.tags, f.path, s.tags, s.path)
	}
}

// barrier closes the bin ending at end on both shards.
func (w *shardTwin) barrier(end time.Time, full bool) {
	w.barriers++
	w.fast.runPromotions(end)
	w.slow.runPromotions(end)
	if !reflect.DeepEqual(w.fast.diverted, w.slow.diverted) {
		w.t.Errorf("bin %v: diverted %v, slow path %v", end, w.fast.diverted, w.slow.diverted)
	}
	if full {
		w.compareAll(end)
	}
	if f, s := w.fast.takeReturns(), w.slow.takeReturns(); !slices.Equal(f, s) {
		w.t.Errorf("bin %v: returns %v, slow path %v", end, f, s)
	}
	for pop, byNear := range w.fast.diverted {
		if w.waiting[pop] == nil {
			w.waiting[pop] = make(map[PathKey]bool)
		}
		for _, recs := range byNear {
			for _, r := range recs {
				w.waiting[pop][r.key] = true
			}
		}
	}
	pops := make([]colo.PoP, 0, len(w.waiting))
	for pop := range w.waiting {
		pops = append(pops, pop)
	}
	slices.SortFunc(pops, cmpPoP)
	var watches []shardWatch
	for _, pop := range pops {
		watches = append(watches, shardWatch{epicenter: pop, signalPops: map[colo.PoP]bool{pop: true}, waiting: w.waiting[pop]})
	}
	w.fast.watches, w.slow.watches = watches, watches
	w.fast.finishBin()
	w.slow.finishBin()
}

func (w *shardTwin) compareAll(end time.Time) {
	if len(w.fast.paths) != len(w.slow.paths) {
		w.t.Errorf("bin %v: %d paths, slow path %d", end, len(w.fast.paths), len(w.slow.paths))
	}
	for key, st := range w.fast.paths {
		w.comparePath(key, st, w.slow.paths[key])
	}
	if !reflect.DeepEqual(w.fast.stable, w.slow.stable) {
		w.t.Errorf("bin %v: stable baselines differ", end)
	}
	if !maps.Equal(w.fast.pathsContaining, w.slow.pathsContaining) {
		w.t.Errorf("bin %v: pathsContaining differ", end)
	}
	if !slices.Equal(w.fast.promos, w.slow.promos) {
		w.t.Errorf("bin %v: promotion queues differ", end)
	}
}

// restore replaces both shards with shards restored from a checkpoint of
// their state, as RestoreFrom does: no restored state is held.
func (w *shardTwin) restore() {
	re := func(s *pathShard) *pathShard {
		im, _, _ := buildImage([]*pathShard{s})
		c := &Checkpoint{Version: CheckpointVersion}
		c.paths, c.stable = sectionOf(im.paths), sectionOf(im.stable)
		r := newPathShard(w.cfg, w.dict, w.cmap)
		if err := restoreCheckpoint(c, w.cfg, []*pathShard{r}, newInvestigator(w.cfg, w.cmap, nil, nil), bgpstream.NewFanout(1)); err != nil {
			w.t.Fatal(err)
		}
		r.watches = s.watches
		return r
	}
	w.fast, w.slow = re(w.fast), re(w.slow)
}

// retagStream is the case the bin cleanup must un-hold a path for: with a
// stability window shorter than a bin, a stable path withdrawn and
// re-announced early in a bin is promoted again before the bin ends, the
// cleanup then drops that stable entry while the path holds the tag, and
// only the slow path of its next unchanged announcement re-adds it.
func retagStream() []*mrt.Record {
	route := func(at time.Time) *mrt.Record {
		return mkUpdate(at, 11, "20.0.1.0/24", bgp.Path{11, 21}, bgp.Communities{bgp.MakeCommunity(11, 51001)})
	}
	other := func(at time.Time) *mrt.Record {
		return mkUpdate(at, 12, "20.0.2.0/24", bgp.Path{12, 22}, bgp.Communities{bgp.MakeCommunity(12, 51001)})
	}
	t1 := tBase.Add(2 * time.Minute)
	return []*mrt.Record{
		route(tBase), other(tBase.Add(40 * time.Second)), // promoted
		mkWithdraw(t1.Add(time.Second), 11, "20.0.1.0/24"), route(t1.Add(2 * time.Second)),
		other(t1.Add(40 * time.Second)), // promoted again within the bin
		route(t1.Add(70 * time.Second)), route(t1.Add(3 * time.Minute)),
		other(t1.Add(4 * time.Minute)),
	}
}

// TestReannounceFastPath checks the shard's unchanged-re-announcement fast
// path against the slow path op by op, over the storm stream, the dump
// stream, the churn stream and the retag stream, each once straight
// through and once restored from a checkpoint halfway.
func TestReannounceFastPath(t *testing.T) {
	mdict, mcmap, _ := microWorld(t)
	sdict, scmap, srecs := stormStream(t)
	_, _, drecs := dumpStream(t)
	short := DefaultConfig()
	short.StableWindow = 30 * time.Second
	for _, s := range []struct {
		name      string
		cfg       Config
		dict      *communities.Dictionary
		cmap      *colo.Map
		recs      []*mrt.Record
		fullEvery int
	}{
		{"storm", DefaultConfig(), sdict, scmap, srecs, 50},
		{"dumps", DefaultConfig(), sdict, scmap, drecs, 200},
		{"churn", DefaultConfig(), mdict, mcmap, churnStream(), 1},
		{"churn/window=30s", short, mdict, mcmap, churnStream(), 1},
		{"retag", short, mdict, mcmap, retagStream(), 1},
	} {
		for _, restored := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/restored=%v", s.name, restored), func(t *testing.T) {
				w := newShardTwin(t, s.cfg, s.dict, s.cmap)
				recs := s.recs
				if restored {
					half := len(recs) / 2
					if w.feed(recs[:half], s.fullEvery); t.Failed() {
						return
					}
					w.restore()
					w.binEnd, recs = time.Time{}, recs[half:]
				}
				w.feed(recs, s.fullEvery)
				t.Logf("%d barriers; %d fast-path announcements, %d on recycled states, %d on states not held",
					w.barriers, w.fastHits, w.recycledHits, w.notHeld)
				if w.fastHits == 0 {
					t.Error("no announcement took the fast path")
				}
				if s.name != "retag" && w.recycledHits == 0 {
					t.Error("no announcement took the fast path on a recycled state")
				}
				if restored && w.notHeld == 0 {
					t.Error("no announcement met a restored state")
				}
			})
		}
	}
}
