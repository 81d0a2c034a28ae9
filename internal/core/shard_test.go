package core

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/mrt"
)

// prependedStream is genStream with some announcements' paths prepended
// (AS 11 11 21 for 11 21, or 11 99 99 21 for 11 99 21): a re-announcement
// whose deduplicated path did not change, though its raw path did.
func prependedStream(seed int64, n int) []*mrt.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := genStream(seed, n)
	for i, r := range recs {
		if r.Update == nil || len(r.Update.Announced) == 0 || rng.Intn(3) != 0 {
			continue
		}
		c := r.Clone()
		p := c.Update.Attrs.ASPath
		at := rng.Intn(len(p))
		c.Update.Attrs.ASPath = append(p[:at+1:at+1], p[at:]...)
		recs[i] = c
	}
	return recs
}

// recount rebuilds pathsContaining from the shard's paths.
func recount(s *pathShard) map[bgp.ASN]int {
	out := make(map[bgp.ASN]int)
	for _, st := range s.paths {
		for _, a := range st.path {
			out[a]++
		}
	}
	return out
}

// TestPathsContainingMatchesRebuild pins the announce fast path that skips
// both pathsContaining walks when the deduplicated path is the one the
// state already holds. At every barrier the kept counts must equal a
// recount of the paths, and a pipeline restored from that barrier's
// checkpoint, which rebuilds the counts from scratch, must hold the same
// counts shard by shard. At the end every path must be the deduplicated
// path of its key's last accepted announcement.
func TestPathsContainingMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		recs := prependedStream(seed, 3000)
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				dict, cmap, _ := microWorld(t)
				e := NewEngine(DefaultConfig(), dict, cmap, nil, shards)
				defer e.Close()
				var enc []byte
				var live []map[bgp.ASN]int
				barriers := 0
				e.SetHooks(Hooks{BinClosed: func(end time.Time) {
					barriers++
					live = live[:0]
					for i, s := range e.shardStates {
						if got, want := s.pathsContaining, recount(s); !maps.Equal(got, want) {
							t.Fatalf("barrier %v shard %d: pathsContaining %v, recount %v", end, i, got, want)
						}
						live = append(live, maps.Clone(s.pathsContaining))
					}
					c, err := e.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if enc, err = c.Encode(); err != nil {
						t.Fatal(err)
					}
				}})
				last := make(map[PathKey]bgp.Path)
				for _, r := range recs {
					e.Process(r)
					if r.Update == nil {
						continue
					}
					for _, p := range r.Update.Announced {
						if bgp.Sanitize(p, r.Update.Attrs.ASPath) == nil {
							last[PathKey{Peer: r.PeerAS, Prefix: p}] = r.Update.Attrs.ASPath.Dedup()
						}
					}
				}
				if barriers < 10 {
					t.Fatalf("only %d barriers", barriers)
				}
				c, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatal(err)
				}
				r := NewEngine(DefaultConfig(), dict, cmap, nil, shards)
				defer r.Close()
				if err := r.RestoreFrom(c); err != nil {
					t.Fatal(err)
				}
				for i, s := range r.shardStates {
					if !maps.Equal(s.pathsContaining, live[i]) {
						t.Errorf("shard %d: restored %v, live %v", i, s.pathsContaining, live[i])
					}
				}
				e.Flush(recs[len(recs)-1].Time)
				for _, s := range e.shardStates {
					for key, st := range s.paths {
						if !st.path.Equal(last[key]) {
							t.Fatalf("%v holds path %v, last announced %v", key, st.path, last[key])
						}
					}
				}
			})
		}
	}
}

// TestSameDedup checks the allocation-free comparison against Dedup.
func TestSameDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a := make(bgp.Path, rng.Intn(8))
		for j := range a {
			a[j] = bgp.ASN(1 + rng.Intn(3))
		}
		b := make(bgp.Path, rng.Intn(6))
		for j := range b {
			b[j] = bgp.ASN(1 + rng.Intn(3))
		}
		if rng.Intn(2) == 0 {
			b = a.Dedup()
		}
		if got, want := sameDedup(a, b), a.Dedup().Equal(b); got != want {
			t.Fatalf("sameDedup(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestReannounceAllocs: re-announcing the route a path already holds, its
// path prepended or not, allocates nothing on the shard.
func TestReannounceAllocs(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	s := newPathShard(DefaultConfig(), dict, cmap)
	op := bgpstream.RouteOp{
		Kind:        bgpstream.OpAnnounce,
		Time:        tBase,
		Peer:        11,
		Prefix:      netip.MustParsePrefix("20.11.0.0/24"),
		Path:        bgp.Path{11, 11, 21},
		Communities: bgp.Communities{bgp.MakeCommunity(11, 51001)},
	}
	s.apply(&op)
	if len(s.paths[PathKey{Peer: 11, Prefix: op.Prefix}].tags) == 0 {
		t.Fatal("the announcement tagged no PoP")
	}
	op.Time = tBase.Add(time.Minute)
	if n := testing.AllocsPerRun(100, func() { op.Seq++; s.apply(&op) }); n != 0 {
		t.Errorf("unchanged re-announcement: %v allocations, want 0", n)
	}
}
