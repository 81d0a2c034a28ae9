package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/mrt"
)

// genStream builds a seeded pseudo-random record stream over the
// microWorld: tagged announcements, diverting re-announcements,
// withdrawals, session flaps and untagged noise, spread over several days
// so stability promotion, binning, restoration and oscillation merging all
// trigger.
func genStream(seed int64, n int) []*mrt.Record {
	rng := rand.New(rand.NewSource(seed))
	nears := []bgp.ASN{11, 12, 13, 14}
	var recs []*mrt.Record
	at := tBase

	prefix := func(near bgp.ASN, i int) string {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(near), byte(i), 0}), 24).String()
	}

	// Seed a healthy tagged baseline so diverts have a stable set to leave.
	for _, near := range nears {
		for i := 0; i < 12; i++ {
			far := bgp.ASN(21 + i%4)
			comm := bgp.Communities{bgp.MakeCommunity(uint16(near), 51001)}
			recs = append(recs, mkUpdate(at, near, prefix(near, i), bgp.Path{near, far}, comm))
		}
	}
	at = at.Add(49 * time.Hour) // past the stability window

	down := map[bgp.ASN]bool{}
	for len(recs) < n {
		at = at.Add(time.Duration(rng.Intn(90)+1) * time.Second)
		near := nears[rng.Intn(len(nears))]
		i := rng.Intn(12)
		far := bgp.ASN(21 + i%4)
		switch rng.Intn(10) {
		case 0, 1, 2: // healthy tagged (re-)announcement / restoration
			comm := bgp.Communities{bgp.MakeCommunity(uint16(near), 51001)}
			recs = append(recs, mkUpdate(at, near, prefix(near, i), bgp.Path{near, far}, comm))
		case 3, 4, 5: // divert: path avoids the facility, community gone
			recs = append(recs, mkUpdate(at, near, prefix(near, i), bgp.Path{near, 99, far}, nil))
		case 6: // explicit withdrawal
			recs = append(recs, mkWithdraw(at, near, prefix(near, i)))
		case 7: // session flap
			state := mrt.StateIdle
			if down[near] {
				state = mrt.StateEstablished
			}
			down[near] = !down[near]
			recs = append(recs, &mrt.Record{
				Time: at, Kind: mrt.KindState, Collector: "rrc00", PeerAS: near,
				OldState: mrt.StateEstablished, NewState: state,
			})
		case 8: // untagged noise from an uncovered vantage
			recs = append(recs, mkUpdate(at, 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))
		case 9: // long quiet gap to exercise bin fast-forward
			at = at.Add(time.Duration(rng.Intn(5000)) * time.Second)
			recs = append(recs, mkUpdate(at, 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))
		}
	}
	return recs
}

// runDetector replays the stream through the sequential pipeline.
func runDetector(t *testing.T, recs []*mrt.Record, p Prober) ([]Outage, []Incident) {
	t.Helper()
	dict, cmap, _ := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	if p != nil {
		d.SetProber(p)
	}
	var outs []Outage
	for _, r := range recs {
		outs = append(outs, d.Process(r)...)
	}
	outs = append(outs, d.Flush(recs[len(recs)-1].Time)...)
	return outs, d.Incidents()
}

// runEngine replays the stream through the engine that skips idle bins.
func runEngine(t *testing.T, recs []*mrt.Record, p Prober) ([]Outage, []Incident) {
	t.Helper()
	dict, cmap, _ := microWorld(t)
	e := NewEngine(DefaultConfig(), dict, cmap, nil)
	if p != nil {
		e.SetProber(p)
	}
	var outs []Outage
	for _, r := range recs {
		outs = append(outs, e.Process(r)...)
	}
	outs = append(outs, e.Flush(recs[len(recs)-1].Time)...)
	return outs, e.Incidents()
}

// relay runs a record stream cut into time shards, the way a restarted
// daemon runs it: the stream is split at evenly spaced records, each shard
// has an engine of its own, killed without a flush at the shard's end (or,
// if it has captured no checkpoint by then, just after its first), and the
// next shard's engine restores the newest checkpoint its predecessor
// captured at a BinClosed hook and re-ingests from the first record that
// checkpoint does not cover. Only the last engine flushes, and the run
// stops feeding records once the test has failed.
type relay struct {
	build func() *Engine        // a fresh engine, prober or watchdog wired
	hooks func(e *Engine) Hooks // the test's callbacks on e, or nil
	from  []byte                // a checkpoint the first engine restores, or nil
	// logged and rewind, when set, cut the test's own callback log back
	// with the outages: what a killed engine logged after its newest
	// checkpoint, its successor logs again.
	logged func() int
	rewind func(n int)
}

// run drives recs through n engines and returns the outages the run drains
// as one uninterrupted run would, and the last engine. Every killed engine
// must hand over a checkpoint of its own.
func (r relay) run(t *testing.T, recs []*mrt.Record, n int) ([]Outage, *Engine) {
	t.Helper()
	enc, at := r.from, 0
	if enc != nil {
		c, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatal(err)
		}
		at = int(c.Records)
	}
	start := at
	var outs []Outage
	for i := 1; ; i++ {
		e := r.build()
		if enc != nil {
			c, err := DecodeCheckpoint(enc)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RestoreFrom(c); err != nil {
				t.Fatal(err)
			}
		}
		var hooks Hooks
		if r.hooks != nil {
			hooks = r.hooks(e)
		}
		var drained []Outage
		keepOuts, keepLog, handed := 0, 0, false
		if r.logged != nil {
			keepLog = r.logged()
		}
		if i < n {
			bin := hooks.BinClosed
			hooks.BinClosed = func(end time.Time) {
				if bin != nil {
					bin(end)
				}
				c, err := e.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint at %v: %v", end, err)
				}
				if enc, err = c.Encode(); err != nil {
					t.Fatal(err)
				}
				// The record in flight is not in the checkpoint: its outages
				// are the successor's to drain.
				at, keepOuts, handed = int(c.Records), len(drained), true
				if r.logged != nil {
					keepLog = r.logged()
				}
			}
		}
		e.SetHooks(hooks)
		from, cut := at, start+(len(recs)-start)*i/n
		next := from
		for ; next < len(recs) && (i == n || next < cut || !handed); next++ {
			if drained = append(drained, e.Process(recs[next])...); t.Failed() {
				return append(outs, drained...), e
			}
		}
		if i == n {
			drained = append(drained, e.Flush(recs[len(recs)-1].Time)...)
			return append(outs, drained...), e
		}
		if !handed {
			t.Fatalf("time shard %d of %d (records %d on) captured no checkpoint to hand over", i, n, from)
		}
		outs = append(outs, drained[:keepOuts]...)
		if r.rewind != nil {
			r.rewind(keepLog)
		}
		e.Close()
	}
}

// TestEngineMatchesDetectorRandomized is the idle-bin skip's correctness
// contract: for any record stream, NewEngine's engine must emit exactly the
// same outages and incidents as the reference that closes every bin, run
// in one piece (shards=1) or cut into that many time shards, each engine
// restored from its predecessor's newest checkpoint (see relay).
func TestEngineMatchesDetectorRandomized(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	build := func() *Engine { return NewEngine(DefaultConfig(), dict, cmap, nil) }
	for seed := int64(1); seed <= 4; seed++ {
		recs := genStream(seed, 4000)
		wantOuts, wantIncs := runDetector(t, recs, nil)
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				gotOuts, e := relay{build: build}.run(t, recs, shards)
				if !reflect.DeepEqual(gotOuts, wantOuts) {
					t.Errorf("outages diverge:\n engine:   %+v\n detector: %+v", gotOuts, wantOuts)
				}
				if gotIncs := e.Incidents(); !reflect.DeepEqual(gotIncs, wantIncs) {
					t.Errorf("incidents diverge:\n engine:   %+v\n detector: %+v", gotIncs, wantIncs)
				}
			})
		}
	}
}

// TestEngineMatchesDetectorWithDataPlane wires a prober that confirms
// everything: over the random stream and the one-outage scenario, the
// engine must submit exactly the detector's campaigns, in the same order.
func TestEngineMatchesDetectorWithDataPlane(t *testing.T) {
	scenario, _ := scenarioStream()
	campaigns := 0
	for _, recs := range [][]*mrt.Record{genStream(7, 4000), scenario} {
		seqPr := answering(true, true)
		wantOuts, wantIncs := runDetector(t, recs, seqPr)
		pr := answering(true, true)
		gotOuts, gotIncs := runEngine(t, recs, pr)
		if !reflect.DeepEqual(gotOuts, wantOuts) {
			t.Error("outages diverge")
		}
		if !reflect.DeepEqual(gotIncs, wantIncs) {
			t.Error("incidents diverge")
		}
		if !reflect.DeepEqual(pr.reqs, seqPr.reqs) {
			t.Errorf("engine submitted %d campaigns, detector %d, or in another order", len(pr.reqs), len(seqPr.reqs))
		}
		campaigns += len(seqPr.reqs)
	}
	if campaigns == 0 {
		t.Fatal("detector submitted no campaigns; the comparison is vacuous")
	}
}

// TestEngineScenario replays the deterministic restoration scenario of
// TestOutageRestorationAndDuration through the engine: same epicenter,
// duration and diverted-path accounting.
func TestEngineScenario(t *testing.T) {
	dict, cmap, fid := microWorld(t)
	e := NewEngine(DefaultConfig(), dict, cmap, nil)

	at := tBase
	pfx := 0
	announce := func(at time.Time, via func(near, far bgp.ASN) (bgp.Path, bgp.Communities)) {
		pfx = 0
		for _, near := range []bgp.ASN{11, 12, 13, 14} {
			for k := 0; k < 3; k++ {
				far := bgp.ASN(21 + (pfx % 4))
				prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(pfx >> 8), byte(pfx), 0}), 24).String()
				path, comm := via(near, far)
				e.Process(mkUpdate(at, near, prefix, path, comm))
				pfx++
			}
		}
	}
	tagged := func(near, far bgp.ASN) (bgp.Path, bgp.Communities) {
		return bgp.Path{near, far}, bgp.Communities{bgp.MakeCommunity(uint16(near), 51001)}
	}
	diverted := func(near, far bgp.ASN) (bgp.Path, bgp.Communities) {
		return bgp.Path{near, 99, far}, nil
	}

	announce(at, tagged)
	at = tBase.Add(49 * time.Hour)
	e.Process(mkUpdate(at, 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))

	failAt := at.Add(time.Hour)
	announce(failAt, diverted)
	e.Process(mkUpdate(failAt.Add(90*time.Second), 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))
	announce(failAt.Add(30*time.Minute), tagged)

	outs := e.Flush(failAt.Add(30 * time.Minute).Add(time.Hour))
	if len(outs) != 1 {
		t.Fatalf("outages = %+v", outs)
	}
	o := outs[0]
	if o.PoP != colo.FacilityPoP(fid) {
		t.Errorf("epicenter = %v", o.PoP)
	}
	if d := o.Duration(); d < 25*time.Minute || d > 40*time.Minute {
		t.Errorf("duration = %v, want ~30m", d)
	}
	if o.DivertedPaths != 12 {
		t.Errorf("diverted paths = %d, want 12", o.DivertedPaths)
	}

	stats := e.Stats()
	if stats.Records == 0 || stats.Ops == 0 || stats.Bins == 0 {
		t.Errorf("ingest stats not collected: %+v", stats)
	}
}

// TestInlineEngineIsReference pins what separates the two constructors and
// what does not: neither starts a goroutine, New closes every bin the
// stream crosses, idle ones included, and NewEngine skips the idle ones
// with the same outages, incidents and final checkpoint bytes.
func TestInlineEngineIsReference(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	var recs []*mrt.Record
	for _, m := range []int{0, 1, 2, 10, 40, 41, 90} {
		comm := bgp.Communities{bgp.MakeCommunity(11, 51001)}
		recs = append(recs, mkUpdate(tBase.Add(time.Duration(m)*time.Minute), 11, "20.11.0.0/24", bgp.Path{11, 21}, comm))
	}
	last := recs[len(recs)-1].Time
	// Every bin end from the first record's bin to the last one's, plus
	// the one Flush closes.
	wantBins := int(last.Sub(recs[0].Time)/time.Minute) + 1

	type result struct {
		bins int
		outs []Outage
		incs []Incident
		ckpt []byte
	}
	before := runtime.NumGoroutine()
	replay := func(name string, e *Engine) result {
		check := func(stage string) {
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s after %s: %d goroutines, %d before", name, stage, n, before)
			}
		}
		check("construction")
		var r result
		e.SetHooks(Hooks{BinClosed: func(time.Time) { r.bins++ }})
		for _, rec := range recs {
			r.outs = append(r.outs, e.Process(rec)...)
		}
		check("Process")
		r.outs = append(r.outs, e.Flush(last)...)
		check("Flush")
		r.incs = e.Incidents()
		c, err := e.Checkpoint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.ckpt, err = c.Encode(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e.Close()
		check("Close")
		return r
	}
	ref := replay("New", New(DefaultConfig(), dict, cmap, nil))
	if ref.bins != wantBins {
		t.Errorf("New closed %d bins, want %d (one per bin end crossed)", ref.bins, wantBins)
	}
	got := replay("NewEngine", NewEngine(DefaultConfig(), dict, cmap, nil))
	if got.bins >= ref.bins {
		t.Errorf("NewEngine closed %d bins, New %d: want the idle ones skipped", got.bins, ref.bins)
	}
	if !reflect.DeepEqual(got.outs, ref.outs) || !reflect.DeepEqual(got.incs, ref.incs) {
		t.Errorf("NewEngine found %v / %v, New %v / %v", got.outs, got.incs, ref.outs, ref.incs)
	}
	if !bytes.Equal(got.ckpt, ref.ckpt) {
		t.Errorf("final checkpoints differ: %d vs %d bytes", len(got.ckpt), len(ref.ckpt))
	}
}
