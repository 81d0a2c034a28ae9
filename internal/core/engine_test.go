package core

import (
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
func runDetector(t *testing.T, recs []*mrt.Record, dp DataPlane) ([]Outage, []Incident) {
	t.Helper()
	dict, cmap, _ := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	if dp != nil {
		d.SetDataPlane(dp)
	}
	var outs []Outage
	for _, r := range recs {
		outs = append(outs, d.Process(r)...)
	}
	outs = append(outs, d.Flush(recs[len(recs)-1].Time)...)
	return outs, d.Incidents()
}

// runEngine replays the stream through the sharded pipeline.
func runEngine(t *testing.T, recs []*mrt.Record, dp DataPlane, shards int) ([]Outage, []Incident) {
	t.Helper()
	dict, cmap, _ := microWorld(t)
	e := NewEngine(DefaultConfig(), dict, cmap, nil, shards)
	defer e.Close()
	if dp != nil {
		e.SetDataPlane(dp)
	}
	var outs []Outage
	for _, r := range recs {
		outs = append(outs, e.Process(r)...)
	}
	outs = append(outs, e.Flush(recs[len(recs)-1].Time)...)
	return outs, e.Incidents()
}

// TestEngineMatchesDetectorRandomized is the refactor's correctness
// contract: for any record stream, the sharded engine must emit exactly
// the same outages and incidents as the sequential detector, at every
// shard count.
func TestEngineMatchesDetectorRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		recs := genStream(seed, 4000)
		wantOuts, wantIncs := runDetector(t, recs, nil)
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				gotOuts, gotIncs := runEngine(t, recs, nil, shards)
				if !reflect.DeepEqual(gotOuts, wantOuts) {
					t.Errorf("outages diverge:\n engine:   %+v\n detector: %+v", gotOuts, wantOuts)
				}
				if !reflect.DeepEqual(gotIncs, wantIncs) {
					t.Errorf("incidents diverge:\n engine:   %+v\n detector: %+v", gotIncs, wantIncs)
				}
			})
		}
	}
}

// countingDP confirms everything and counts calls: the engine must consult
// the data plane for exactly the same probes in the same order.
type countingDP struct{ calls int }

func (c *countingDP) Confirm(colo.PoP, time.Time) (bool, bool) {
	c.calls++
	return true, true
}

func TestEngineMatchesDetectorWithDataPlane(t *testing.T) {
	recs := genStream(7, 4000)
	seqDP := &countingDP{}
	wantOuts, wantIncs := runDetector(t, recs, seqDP)
	for _, shards := range []int{2, 8} {
		dp := &countingDP{}
		gotOuts, gotIncs := runEngine(t, recs, dp, shards)
		if !reflect.DeepEqual(gotOuts, wantOuts) {
			t.Errorf("shards=%d: outages diverge", shards)
		}
		if !reflect.DeepEqual(gotIncs, wantIncs) {
			t.Errorf("shards=%d: incidents diverge", shards)
		}
		if dp.calls != seqDP.calls {
			t.Errorf("shards=%d: data-plane probes = %d, detector issued %d", shards, dp.calls, seqDP.calls)
		}
	}
}

// TestEngineScenario replays the deterministic restoration scenario of
// TestOutageRestorationAndDuration through the engine: same epicenter,
// duration and diverted-path accounting.
func TestEngineScenario(t *testing.T) {
	dict, cmap, fid := microWorld(t)
	e := NewEngine(DefaultConfig(), dict, cmap, nil, 4)
	defer e.Close()

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

// TestInlineEngineIsReference pins what keeps New's engine the reference
// the worker engine is checked against: it starts no goroutine, and it
// closes every bin the stream crosses, idle ones included, where a
// 4-shard engine skips the idle ones.
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

	before := runtime.NumGoroutine()
	check := func(stage string) {
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("after %s: %d goroutines, %d before New", stage, n, before)
		}
	}
	inline := New(DefaultConfig(), dict, cmap, nil)
	check("New")
	bins := 0
	inline.SetHooks(Hooks{BinClosed: func(time.Time) { bins++ }})
	for _, r := range recs {
		inline.Process(r)
	}
	check("Process")
	inline.Flush(last)
	check("Flush")
	if bins != wantBins {
		t.Errorf("inline engine closed %d bins, want %d (one per bin end crossed)", bins, wantBins)
	}

	workers := NewEngine(DefaultConfig(), dict, cmap, nil, 4)
	defer workers.Close()
	if n := runtime.NumGoroutine(); n < before+4 {
		t.Errorf("4-shard engine: %d goroutines, want at least %d", n, before+4)
	}
	sharded := 0
	workers.SetHooks(Hooks{BinClosed: func(time.Time) { sharded++ }})
	for _, r := range recs {
		workers.Process(r)
	}
	workers.Flush(last)
	if sharded >= bins {
		t.Errorf("4-shard engine closed %d bins, the inline one %d: want the idle ones skipped", sharded, bins)
	}
}
