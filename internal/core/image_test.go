package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/communities"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/registry"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

// stormWorld is a small generated world under an outage storm, rendered the
// way cmd/topogen renders an archive: an initial RIB dump, facility, IXP,
// link and AS outages, collector session resets (peer-down, so
// suspendPeer), and a full RIB dump every five days. dumps is twelve days
// of the same world with a RIB dump every 48 h and a few outages, the shape
// of the benchmark's rib-backfill archive.
var stormWorld struct {
	once  sync.Once
	err   error
	dict  *communities.Dictionary
	cmap  *colo.Map
	recs  []*mrt.Record
	dumps []*mrt.Record
}

func stormStream(t testing.TB) (*communities.Dictionary, *colo.Map, []*mrt.Record) {
	t.Helper()
	s := &stormWorld
	s.once.Do(func() {
		wcfg := topology.DefaultConfig()
		wcfg.Tier2s, wcfg.Contents, wcfg.Stubs = 20, 8, 50
		wcfg.Facilities, wcfg.IXPs = 30, 8
		wcfg.Collectors, wcfg.VantagePerCollector = 2, 5
		w, err := topology.Generate(wcfg)
		if err != nil {
			s.err = err
			return
		}
		// internal/pipeline.Build, which imports this package.
		opts := registry.DefaultSnapshotOptions()
		opts.PeeringDBFacilityCoverage = 1.0
		facs, ixps := registry.Snapshot(w.Truth, opts, 77)
		b := colo.NewBuilder(w.Geo)
		for _, r := range facs {
			b.AddFacility(r)
		}
		for _, r := range ixps {
			b.AddIXP(r)
		}
		s.cmap = b.Build()
		s.dict = communities.NewMiner(w.Geo, s.cmap).Mine(registry.RenderDocs(w.Truth, registry.DocOptions{DistractorsPerDoc: 3}, 78))

		start := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
		end := start.Add(16 * 24 * time.Hour)
		sched := simulate.GenerateSchedule(w, simulate.ScheduleConfig{
			Seed: 2, Start: start.Add(3 * 24 * time.Hour), End: end.Add(-24 * time.Hour),
			FacilityOutages: 4, IXPOutages: 2, LinkOutages: 8, ASOutages: 2,
			PartialFraction: 0.15, MinMembers: 4,
		})
		res, err := simulate.Render(w, sched, start, end, simulate.RenderConfig{
			Seed: 3, SessionResets: 2, StickyFraction: 0.05, RIBDumpInterval: 5 * 24 * time.Hour,
		})
		if err != nil {
			s.err = err
			return
		}
		s.recs = res.Records

		end = start.Add(12 * 24 * time.Hour)
		sched = simulate.GenerateSchedule(w, simulate.ScheduleConfig{
			Seed: 5, Start: start.Add(2 * 24 * time.Hour), End: end.Add(-24 * time.Hour),
			FacilityOutages: 2, IXPOutages: 1, LinkOutages: 4, ASOutages: 1,
			PartialFraction: 0.15, MinMembers: 4,
		})
		res, err = simulate.Render(w, sched, start, end, simulate.RenderConfig{
			Seed: 4, SessionResets: 1, StickyFraction: 0.05, RIBDumpInterval: 48 * time.Hour,
		})
		if err != nil {
			s.err = err
			return
		}
		s.dumps = res.Records
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.dict, s.cmap, s.recs
}

// dumpStream returns stormWorld's dump stream.
func dumpStream(t testing.TB) (*communities.Dictionary, *colo.Map, []*mrt.Record) {
	t.Helper()
	dict, cmap, _ := stormStream(t)
	return dict, cmap, stormWorld.dumps
}

// churnStream is a hand-built stream over the microWorld whose intervals
// between bin closes each exercise one way the image can change: a
// promoted baseline, a withdrawal and re-announcement of the same key
// inside one bin, a withdrawal that sticks, a peer-down, a quiet stretch
// where bins close with nothing dirty, and a collector session reset
// followed by RIB dumps.
func churnStream() []*mrt.Record {
	// Each peer's table is large enough that the session reset overflows
	// the dirty lists of every shard of a 4-shard engine.
	const table = 200
	var recs []*mrt.Record
	prefix := func(i int) string { return fmt.Sprintf("20.0.%d.0/24", i) }
	tagged := func(at time.Time, near bgp.ASN, i int, kind mrt.RecordKind) {
		r := mkUpdate(at, near, prefix(i), bgp.Path{near, bgp.ASN(21 + i%4)},
			bgp.Communities{bgp.MakeCommunity(uint16(near), 51001)})
		r.Kind = kind
		recs = append(recs, r)
	}
	ka := func(at time.Time) { recs = append(recs, mkUpdate(at, 99, "198.41.0.0/16", bgp.Path{99, 98}, nil)) }

	for _, near := range []bgp.ASN{11, 12, 13, 14} {
		for i := 0; i < table; i++ {
			tagged(tBase, near, i, mrt.KindUpdate)
		}
	}
	at := tBase.Add(49 * time.Hour) // promoted
	ka(at)
	ka(at.Add(2 * time.Minute))

	at = at.Add(10 * time.Minute) // withdraw, re-announce: one bin
	recs = append(recs, mkWithdraw(at, 11, prefix(3)))
	tagged(at.Add(10*time.Second), 11, 3, mrt.KindUpdate)
	ka(at.Add(2 * time.Minute))

	at = at.Add(10 * time.Minute) // withdrawals that stick
	for i := 5; i < 9; i++ {
		recs = append(recs, mkWithdraw(at, 12, prefix(i)))
	}
	ka(at.Add(2 * time.Minute))

	at = at.Add(10 * time.Minute) // peer-down
	recs = append(recs, &mrt.Record{Time: at, Kind: mrt.KindState, Collector: "rrc00", PeerAS: 13,
		OldState: mrt.StateEstablished, NewState: mrt.StateIdle})
	ka(at.Add(2 * time.Minute))

	at = at.Add(10 * time.Minute) // quiet: ops that change nothing still close bins
	for i := 0; i < 5; i++ {
		recs = append(recs, mkWithdraw(at.Add(time.Duration(i)*2*time.Minute), 99, "203.0.113.0/24"))
	}

	// A collector session reset drops the other three peers, whose RIB
	// dumps re-create every path it dropped: suspending a path and
	// re-creating it dirties it twice and its stable entries once, past
	// the live path count, so the dirty lists overflow. Nine more
	// collectors then dump the same routes, which changes nothing. Then
	// the downed peer comes back.
	at = at.Add(20 * time.Minute)
	for _, near := range []bgp.ASN{11, 12, 14} {
		recs = append(recs, &mrt.Record{Time: at, Kind: mrt.KindState, Collector: "rrc00", PeerAS: near,
			OldState: mrt.StateEstablished, NewState: mrt.StateIdle})
	}
	for pass := 0; pass < 10; pass++ {
		for _, near := range []bgp.ASN{11, 12, 14} {
			for i := 0; i < table; i++ {
				tagged(at, near, i, mrt.KindRIB)
			}
		}
	}
	recs = append(recs, &mrt.Record{Time: at.Add(time.Minute), Kind: mrt.KindState, Collector: "rrc00", PeerAS: 13,
		OldState: mrt.StateIdle, NewState: mrt.StateEstablished})
	for i := 0; i < table; i++ {
		tagged(at.Add(2*time.Minute), 13, i, mrt.KindUpdate)
	}
	ka(at.Add(5 * time.Minute))
	ka(at.Add(49 * time.Hour))
	ka(at.Add(49*time.Hour + 2*time.Minute))
	return recs
}

// newPipeline builds the pipeline the differential tests drive: the inline
// engine for shards == 0, else an engine with that many shard workers.
func newPipeline(dict *communities.Dictionary, cmap *colo.Map, shards int) *Engine {
	cfg := DefaultConfig()
	cfg.FeedSilence = 30 * time.Minute
	if shards == 0 {
		return New(cfg, dict, cmap, nil)
	}
	return NewEngine(cfg, dict, cmap, nil, shards)
}

// checkAgainstRebuild captures a checkpoint (on the pipeline's image, warm
// whenever it can be) and requires its encoding to equal that of the same
// checkpoint over an image built from scratch from the shard maps. It runs
// inside BinClosed hooks, where a t.Fatal would leave an engine's workers
// parked at the barrier: it reports with t.Error and the caller stops
// feeding records once the test has failed.
func checkAgainstRebuild(t *testing.T, p *Engine, end time.Time) []byte {
	t.Helper()
	c, err := p.Checkpoint()
	if err != nil {
		t.Errorf("checkpoint at %v: %v", end, err)
		return nil
	}
	got, err := c.Encode()
	if err != nil {
		t.Error(err)
		return nil
	}
	scratch := *c
	im, _, _ := buildImage(p.shardStates)
	scratch.paths, scratch.stable = sectionOf(im.paths), sectionOf(im.stable)
	want, err := scratch.Encode()
	if err != nil {
		t.Error(err)
		return nil
	}
	if !bytes.Equal(got, want) {
		t.Errorf("checkpoint at %v (%d paths, %d stable) differs from a from-scratch build (%d paths, %d stable): %d vs %d bytes",
			end, c.NumPaths(), c.NumStable(), scratch.NumPaths(), scratch.NumStable(), len(got), len(want))
	}
	return got
}

// feed processes recs until the test has failed.
func feed(t *testing.T, p *Engine, recs []*mrt.Record) {
	for _, r := range recs {
		if p.Process(r); t.Failed() {
			return
		}
	}
}

// TestCheckpointIncrementalEqualsRebuild is the safety net under the
// checkpoint image: at every bin barrier of a storm and of a stream built to
// hit each kind of change, a checkpoint captured on the warm image must be
// byte-for-byte the checkpoint a from-scratch build of the same state
// gives — for the inline engine, for engines of 1, 2 and 4 shards (whose bytes
// must also agree with each other), and for an engine restored mid-stream.
func TestCheckpointIncrementalEqualsRebuild(t *testing.T) {
	type stream struct {
		name string
		dict *communities.Dictionary
		cmap *colo.Map
		recs []*mrt.Record
		// cold is how many captures must at least rebuild from the maps:
		// the first, and on the churn stream the one after its session
		// reset. An unchanged RIB dump dirties nothing, so the storm's dumps
		// need not add one (its session resets may, on small shards).
		cold int64
	}
	mdict, mcmap, _ := microWorld(t)
	sdict, scmap, srecs := stormStream(t)
	for _, s := range []stream{{"churn", mdict, mcmap, churnStream(), 2}, {"storm", sdict, scmap, srecs, 1}} {
		var ref map[time.Time][]byte // the detector's bytes per barrier
		var mid []byte               // a checkpoint from the middle of the stream
		for _, shards := range []int{0, 1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", s.name, shards), func(t *testing.T) {
				p := newPipeline(s.dict, s.cmap, shards)
				defer p.Close()
				stats := &metrics.CheckpointStats{}
				p.SetCheckpointStats(stats)
				encs := map[time.Time][]byte{}
				quiet := 0
				p.SetHooks(Hooks{BinClosed: func(end time.Time) {
					encs[end] = checkAgainstRebuild(t, p, end)
					if stats.DirtyPaths.Load() == 0 && stats.DirtyStable.Load() == 0 {
						quiet++
					}
				}})
				if feed(t, p, s.recs); t.Failed() {
					return
				}
				snap := stats.Snapshot()
				t.Logf("%d captures, %d cold, %d with nothing dirty", snap.Captures, snap.ColdRebuilds, quiet)
				if snap.Captures < 10 || snap.ColdRebuilds < s.cold || snap.ColdRebuilds > snap.Captures/4 {
					t.Errorf("%d captures of which %d cold: want mostly warm captures and at least %d cold", snap.Captures, snap.ColdRebuilds, s.cold)
				}
				if quiet == 0 && s.name == "churn" {
					t.Error("no capture found nothing dirty")
				}
				if shards == 0 {
					ref = encs
					ends := make([]time.Time, 0, len(encs))
					for end := range encs {
						ends = append(ends, end)
					}
					slices.SortFunc(ends, time.Time.Compare)
					mid = encs[ends[len(ends)/2]]
					return
				}
				// The engine skips idle bin closes the detector walks through.
				for end, enc := range encs {
					if !bytes.Equal(enc, ref[end]) {
						t.Fatalf("checkpoint at %v differs from the detector's", end)
					}
				}
			})
		}
		t.Run(s.name+"/restored", func(t *testing.T) {
			c, err := DecodeCheckpoint(mid)
			if err != nil {
				t.Fatal(err)
			}
			p := newPipeline(s.dict, s.cmap, 2)
			defer p.Close()
			if err := p.RestoreFrom(c); err != nil {
				t.Fatal(err)
			}
			stats := &metrics.CheckpointStats{}
			p.SetCheckpointStats(stats)
			compared := 0
			p.SetHooks(Hooks{BinClosed: func(end time.Time) {
				if enc := checkAgainstRebuild(t, p, end); ref[end] != nil {
					compared++
					if !bytes.Equal(enc, ref[end]) {
						t.Errorf("restored engine's checkpoint at %v differs from the uninterrupted detector's", end)
					}
				}
			}})
			feed(t, p, s.recs[c.Records:])
			if compared == 0 || stats.ColdRebuilds.Load() == 0 || stats.ColdRebuilds.Load() == stats.Captures.Load() {
				t.Errorf("%d barriers compared, %d of %d captures cold: want the first capture after restore cold and warm ones after",
					compared, stats.ColdRebuilds.Load(), stats.Captures.Load())
			}
		})
	}
}

// TestCheckpointTrackingGuards pins what keeps memory mode free and the
// dirty lists small: an engine that never checkpoints never tracks, and one
// that does holds dirty lists no longer than its live path count — a RIB
// dump between two captures overflows them, and the next capture rebuilds
// cold (and still matches the from-scratch bytes).
func TestCheckpointTrackingGuards(t *testing.T) {
	dict, cmap, recs := stormStream(t)

	never := NewEngine(DefaultConfig(), dict, cmap, nil, 2)
	for _, r := range recs {
		never.Process(r)
	}
	never.Close() // the workers have exited: shard state is ours to read
	for i, s := range never.shardStates {
		if s.tracking || s.dirtyPaths != nil || s.dirtyStable != nil {
			t.Errorf("shard %d of an engine that never checkpointed: tracking=%v, %d dirty paths, %d dirty stable entries",
				i, s.tracking, len(s.dirtyPaths), len(s.dirtyStable))
		}
	}

	// Capture once, at the first barrier, then not again until the storm's
	// mid-run RIB dump has gone by.
	var dumpAt time.Time
	for _, r := range recs {
		if r.Kind == mrt.KindRIB && r.Time.After(recs[0].Time) {
			dumpAt = r.Time
			break
		}
	}
	if dumpAt.IsZero() {
		t.Fatal("the storm has no mid-run RIB dump")
	}
	p := newPipeline(dict, cmap, 2)
	defer p.Close()
	stats := &metrics.CheckpointStats{}
	p.SetCheckpointStats(stats)
	captures := 0
	p.SetHooks(Hooks{BinClosed: func(end time.Time) {
		gaveUp := false
		for i, s := range p.shardStates {
			if n := len(s.dirtyPaths) + len(s.dirtyStable); n > max(len(s.paths), minDirtyBound) {
				t.Errorf("shard %d holds %d dirty entries over %d live paths at %v", i, n, len(s.paths), end)
			}
			gaveUp = gaveUp || !s.tracking
		}
		switch {
		case captures == 0:
		case !end.After(dumpAt):
			return
		case captures == 1 && !gaveUp:
			t.Error("every shard still tracking after a RIB dump since the last capture")
		}
		checkAgainstRebuild(t, p, end)
		captures++
	}})
	for _, r := range recs {
		if p.Process(r); captures == 5 || t.Failed() {
			break
		}
	}
	if snap := stats.Snapshot(); captures != 5 || snap.ColdRebuilds != 2 {
		t.Errorf("%d captures, %d cold: want the first and the one after the RIB dump cold, the rest warm", captures, snap.ColdRebuilds)
	}
}

// TestSaverEncodeRacesIngest is what lets a checkpoint saver encode off the
// ingest goroutine: a checkpoint captured at a barrier is handed to another
// goroutine, which encodes it (into one reused buffer, as the saver does)
// while the pipeline runs on through later barriers and later captures, and
// the bytes must be those of encoding it synchronously at its barrier — for
// the inline engine and for engines of 1, 2 and 4 shards. Run with -race: a
// capture that aliased anything the pipeline still writes shows up here.
func TestSaverEncodeRacesIngest(t *testing.T) {
	mdict, mcmap, _ := microWorld(t)
	sdict, scmap, srecs := stormStream(t)
	for _, s := range []struct {
		name string
		dict *communities.Dictionary
		cmap *colo.Map
		recs []*mrt.Record
	}{{"churn", mdict, mcmap, churnStream()}, {"storm", sdict, scmap, srecs}} {
		for _, shards := range []int{0, 1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", s.name, shards), func(t *testing.T) {
				p := newPipeline(s.dict, s.cmap, shards)
				defer p.Close()
				type job struct {
					end  time.Time
					c    *Checkpoint
					want []byte
				}
				// Deep enough that the encoder usually runs several barriers
				// behind ingest, never so deep that ingest has to wait long.
				jobs := make(chan job, 8)
				encoded := make(chan int)
				go func() {
					var buf []byte
					n := 0
					for j := range jobs {
						var err error
						if buf, err = j.c.AppendEncode(buf[:0]); err != nil {
							t.Errorf("encoding the checkpoint of %v: %v", j.end, err)
						} else if !bytes.Equal(buf, j.want) {
							t.Errorf("checkpoint of %v encoded off the ingest goroutine: %d bytes, differs from the %d encoded at the barrier",
								j.end, len(buf), len(j.want))
						}
						n++
					}
					encoded <- n
				}()
				captured := 0
				p.SetHooks(Hooks{BinClosed: func(end time.Time) {
					c, err := p.Checkpoint()
					if err != nil {
						t.Errorf("checkpoint at %v: %v", end, err)
						return
					}
					want, err := c.Encode()
					if err != nil {
						t.Error(err)
						return
					}
					captured++
					jobs <- job{end, c, want}
				}})
				feed(t, p, s.recs)
				close(jobs)
				if n := <-encoded; n != captured || n < 10 {
					t.Errorf("%d checkpoints captured, %d encoded: want at least 10, all encoded", captured, n)
				}
			})
		}
	}
}

// TestCheckpointRestoresAtEveryBarrier restores a checkpoint of every
// barrier of the two streams — not one from somewhere in the middle — and
// requires the lifecycle callbacks of re-ingesting the suffix to be the
// uninterrupted run's from that barrier on. A daemon that keeps one
// checkpoint as its newest for longer (the saver defers while it is busy)
// restarts from barriers a synchronous one rarely died behind; the one
// that used to break is a barrier closed by a record more than 100 bins
// on, where the restored clock closed one bin more before fast-forwarding
// than the original had, one bin_closed too many for the replay gate.
func TestCheckpointRestoresAtEveryBarrier(t *testing.T) {
	mdict, mcmap, _ := microWorld(t)
	sdict, scmap, srecs := stormStream(t)
	logTo := func(log *[]string) Hooks {
		add := func(format string, args ...any) { *log = append(*log, fmt.Sprintf(format, args...)) }
		return Hooks{
			OutageOpened:       func(s OutageStatus) { add("opened %v", s) },
			OutageUpdated:      func(s OutageStatus) { add("updated %v", s) },
			OutageResolved:     func(o Outage) { add("resolved %v", o) },
			IncidentClassified: func(i Incident) { add("incident %v", i) },
			FeedDegraded:       func(tr bgpstream.FeedTransition) { add("degraded %v", tr) },
			FeedRecovered:      func(tr bgpstream.FeedTransition) { add("recovered %v", tr) },
			BinClosed:          func(end time.Time) { add("bin %v", end) },
		}
	}
	for _, s := range []struct {
		name   string
		dict   *communities.Dictionary
		cmap   *colo.Map
		recs   []*mrt.Record
		stride int // restore from every stride-th barrier
	}{{"churn", mdict, mcmap, churnStream(), 1}, {"storm", sdict, scmap, srecs, 7}} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", s.name, shards), func(t *testing.T) {
				type barrier struct {
					end    time.Time
					enc    []byte
					logged int // callbacks up to and including this barrier's BinClosed
					jumped bool
				}
				var (
					ref      []string
					barriers []barrier
				)
				p := newPipeline(s.dict, s.cmap, shards)
				defer p.Close()
				hooks := logTo(&ref)
				logBin := hooks.BinClosed
				hooks.BinClosed = func(end time.Time) {
					logBin(end)
					c, err := p.Checkpoint()
					if err != nil {
						t.Errorf("checkpoint at %v: %v", end, err)
						return
					}
					enc, err := c.Encode()
					if err != nil {
						t.Error(err)
						return
					}
					barriers = append(barriers, barrier{end, enc, len(ref), !c.BinStart.Equal(end)})
				}
				p.SetHooks(hooks)
				if feed(t, p, s.recs); t.Failed() {
					return
				}
				jumped := 0
				for i, b := range barriers {
					if b.jumped {
						jumped++
					} else if i%s.stride != 0 {
						continue
					}
					c, err := DecodeCheckpoint(b.enc)
					if err != nil {
						t.Fatal(err)
					}
					var got []string
					r := newPipeline(s.dict, s.cmap, shards)
					if err := r.RestoreFrom(c); err != nil {
						t.Fatal(err)
					}
					r.SetHooks(logTo(&got))
					feed(t, r, s.recs[c.Records:])
					r.Close()
					if want := ref[b.logged:]; !slices.Equal(got, want) {
						n := 0
						for n < len(got) && n < len(want) && got[n] == want[n] {
							n++
						}
						t.Fatalf("restored at barrier %v (clock resumes at %v): %d callbacks, uninterrupted run %d; first difference at %d:\n got  %v\n want %v",
							b.end, c.BinStart, len(got), len(want), n, got[n:min(n+1, len(got))], want[n:min(n+1, len(want))])
					}
				}
				if jumped == 0 {
					t.Error("no barrier was closed across an idle gap the clock fast-forwards over")
				}
			})
		}
	}
}
