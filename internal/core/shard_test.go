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
// counts. At the end every path must be the deduplicated path of its key's
// last accepted announcement. shards=0 runs the reference engine,
// shards=1 NewEngine's, and shards=3 NewEngine's over the stream cut into
// three time shards, each engine restored from its predecessor's newest
// checkpoint (see relay), whose restored counts are checked as it starts.
func TestPathsContainingMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		recs := prependedStream(seed, 3000)
		last := make(map[PathKey]bgp.Path)
		for _, r := range recs {
			if r.Update == nil {
				continue
			}
			for _, p := range r.Update.Announced {
				if bgp.Sanitize(p, r.Update.Attrs.ASPath) == nil {
					last[PathKey{Peer: r.PeerAS, Prefix: p}] = r.Update.Attrs.ASPath.Dedup()
				}
			}
		}
		for _, shards := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				dict, cmap, _ := microWorld(t)
				var enc []byte
				var live map[bgp.ASN]int
				barriers, restored := 0, 0
				hooks := func(e *Engine) Hooks {
					if live != nil {
						// e was restored from the checkpoint of live's barrier.
						restored++
						if !maps.Equal(e.ps.pathsContaining, live) {
							t.Errorf("restored %v, live %v", e.ps.pathsContaining, live)
						}
					}
					return Hooks{BinClosed: func(end time.Time) {
						barriers++
						if got, want := e.ps.pathsContaining, recount(e.ps); !maps.Equal(got, want) {
							t.Fatalf("barrier %v: pathsContaining %v, recount %v", end, got, want)
						}
						live = maps.Clone(e.ps.pathsContaining)
						c, err := e.Checkpoint()
						if err != nil {
							t.Fatal(err)
						}
						if enc, err = c.Encode(); err != nil {
							t.Fatal(err)
						}
					}}
				}
				build := func() *Engine {
					if shards == 0 {
						return New(DefaultConfig(), dict, cmap, nil)
					}
					return NewEngine(DefaultConfig(), dict, cmap, nil)
				}
				_, e := relay{build: build, hooks: hooks}.run(t, recs, max(shards, 1))
				if barriers < 10 {
					t.Fatalf("only %d barriers", barriers)
				}
				if want := max(shards, 1) - 1; restored != want {
					t.Errorf("%d engines restored mid-stream, want %d", restored, want)
				}
				c, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatal(err)
				}
				r := NewEngine(DefaultConfig(), dict, cmap, nil)
				if err := r.RestoreFrom(c); err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(r.ps.pathsContaining, live) {
					t.Errorf("restored %v, live %v", r.ps.pathsContaining, live)
				}
				for key, st := range e.ps.paths {
					if !st.path.Equal(last[key]) {
						t.Fatalf("%v holds path %v, last announced %v", key, st.path, last[key])
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
