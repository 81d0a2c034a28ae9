package core

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/mrt"
)

// scenarioRecords renders the deterministic facility-outage scenario of
// TestEngineScenario as a record stream: stable baseline, full divert away
// from F1, restoration 30 minutes later. Flushing an hour after the last
// record yields exactly one completed outage.
func scenarioRecords() []*mrt.Record {
	var recs []*mrt.Record
	announce := func(at time.Time, tagged bool) {
		pfx := 0
		for _, near := range []bgp.ASN{11, 12, 13, 14} {
			for k := 0; k < 3; k++ {
				far := bgp.ASN(21 + (pfx % 4))
				prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(pfx >> 8), byte(pfx), 0}), 24).String()
				if tagged {
					comm := bgp.Communities{bgp.MakeCommunity(uint16(near), 51001)}
					recs = append(recs, mkUpdate(at, near, prefix, bgp.Path{near, far}, comm))
				} else {
					recs = append(recs, mkUpdate(at, near, prefix, bgp.Path{near, 99, far}, nil))
				}
				pfx++
			}
		}
	}
	announce(tBase, true)
	recs = append(recs, mkUpdate(tBase.Add(49*time.Hour), 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))
	failAt := tBase.Add(50 * time.Hour)
	announce(failAt, false)
	recs = append(recs, mkUpdate(failAt.Add(90*time.Second), 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))
	announce(failAt.Add(30*time.Minute), true)
	return recs
}

// scenarioFlushAt is the flush instant that completes the scenario outage.
func scenarioFlushAt() time.Time {
	return tBase.Add(50*time.Hour + 30*time.Minute + time.Hour)
}

// TestEngineCloseIdempotent closes the engine repeatedly, from multiple
// goroutines, and racing Flush — the daemon shutdown path. Every
// combination must be panic-free under -race, and a Flush that wins the
// race must still produce the reference output.
func TestEngineCloseIdempotent(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	recs := scenarioRecords()

	// Reference: the sequential detector over the same stream.
	want, _ := runDetector(t, recs, nil)
	if len(want) != 1 {
		t.Fatalf("reference produced %d outages, want 1", len(want))
	}

	eng := NewEngine(DefaultConfig(), dict, cmap, nil, 4)
	var outs []Outage
	for _, r := range recs {
		outs = append(outs, eng.Process(r)...)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			eng.Close()
		}()
		go func() {
			defer wg.Done()
			got := eng.Flush(scenarioFlushAt())
			mu.Lock()
			outs = append(outs, got...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	eng.Close() // idempotent after the dust settles

	// Close may win the race, degrading every Flush to a drain (no outages);
	// if any Flush ran first, the drained set must match the reference
	// exactly once — never duplicated by the later Flushes.
	if len(outs) > 0 && !reflect.DeepEqual(outs, want) {
		t.Fatalf("raced flush diverged:\n got:  %+v\n want: %+v", outs, want)
	}
}

// TestEngineFlushAfterClose pins the degraded-Flush contract: after Close,
// Flush returns promptly (no send on closed shard channels) with whatever
// had already completed.
func TestEngineFlushAfterClose(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	eng := NewEngine(DefaultConfig(), dict, cmap, nil, 2)
	recs := scenarioRecords()
	for _, r := range recs {
		eng.Process(r)
	}
	eng.Close()
	eng.Close()
	done := make(chan []Outage, 1)
	go func() { done <- eng.Flush(scenarioFlushAt()) }()
	select {
	case got := <-done:
		if len(got) != 0 {
			t.Fatalf("Flush after Close completed new outages: %+v", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush after Close hung")
	}
}

// TestEngineHooks drives the deterministic outage scenario and verifies the
// lifecycle callbacks: resolved events equal the drained output, the outage
// was opened before it resolved, and incident callbacks mirror Incidents().
func TestEngineHooks(t *testing.T) {
	dict, cmap, fid := microWorld(t)
	recs := scenarioRecords()

	eng := NewEngine(DefaultConfig(), dict, cmap, nil, 3)
	defer eng.Close()

	var opened, updated []OutageStatus
	var resolved []Outage
	var incidents []Incident
	var bins int
	eng.SetHooks(Hooks{
		OutageOpened:       func(s OutageStatus) { opened = append(opened, s) },
		OutageUpdated:      func(s OutageStatus) { updated = append(updated, s) },
		OutageResolved:     func(o Outage) { resolved = append(resolved, o) },
		IncidentClassified: func(inc Incident) { incidents = append(incidents, inc) },
		BinClosed:          func(time.Time) { bins++ },
	})

	var outs []Outage
	for _, r := range recs {
		outs = append(outs, eng.Process(r)...)
	}
	outs = append(outs, eng.Flush(scenarioFlushAt())...)

	if len(outs) != 1 {
		t.Fatalf("outages = %+v, want exactly one", outs)
	}
	if !reflect.DeepEqual(resolved, outs) {
		t.Errorf("resolved hook diverges from drained outages: %+v vs %+v", resolved, outs)
	}
	if !reflect.DeepEqual(incidents, eng.Incidents()) {
		t.Errorf("incident hook diverges from Incidents(): %d vs %d", len(incidents), len(eng.Incidents()))
	}
	if bins == 0 {
		t.Error("BinClosed never fired")
	}
	if len(opened) != 1 {
		t.Fatalf("opened = %+v, want exactly one", opened)
	}
	st := opened[0]
	if st.PoP.ID != uint32(fid) {
		t.Errorf("opened epicenter = %v, want facility %d", st.PoP, fid)
	}
	if st.WaitingPaths != 12 || len(st.AffectedASes) == 0 {
		t.Errorf("opened status = %+v, want 12 waiting paths", st)
	}
	for _, s := range updated {
		if s.PoP != st.PoP {
			t.Errorf("update for %v, only %v was opened", s.PoP, st.PoP)
		}
		if s.LastSignal.Before(st.LastSignal) {
			t.Errorf("update signal time went backwards: %v < %v", s.LastSignal, st.LastSignal)
		}
	}
	if resolved[0].PoP != st.PoP {
		t.Errorf("resolved %v, opened %v", resolved[0].PoP, st.PoP)
	}
}

// TestDetectorHooksMatchEngine replays one stream through both pipelines
// with hooks attached: the callback sequences must agree, like the outputs.
func TestDetectorHooksMatchEngine(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	recs := scenarioRecords()

	type seq struct {
		opened, updated []OutageStatus
		resolved        []Outage
		incidents       []Incident
	}
	collect := func(set func(Hooks), run func()) seq {
		var s seq
		set(Hooks{
			OutageOpened:       func(st OutageStatus) { s.opened = append(s.opened, st) },
			OutageUpdated:      func(st OutageStatus) { s.updated = append(s.updated, st) },
			OutageResolved:     func(o Outage) { s.resolved = append(s.resolved, o) },
			IncidentClassified: func(i Incident) { s.incidents = append(s.incidents, i) },
		})
		run()
		return s
	}

	det := New(DefaultConfig(), dict, cmap, nil)
	dSeq := collect(det.SetHooks, func() {
		for _, r := range recs {
			det.Process(r)
		}
		det.Flush(scenarioFlushAt())
	})

	eng := NewEngine(DefaultConfig(), dict, cmap, nil, 4)
	defer eng.Close()
	eSeq := collect(eng.SetHooks, func() {
		for _, r := range recs {
			eng.Process(r)
		}
		eng.Flush(scenarioFlushAt())
	})

	if !reflect.DeepEqual(dSeq, eSeq) {
		t.Errorf("hook sequences diverge:\n detector: %+v\n engine:   %+v", dSeq, eSeq)
	}
	if len(dSeq.resolved) == 0 || len(dSeq.opened) == 0 {
		t.Fatal("scenario raised no hook traffic; comparison vacuous")
	}
}

// TestEngineFlushBeforeCurrentBin flushes the outage scenario halfway
// through its restoration, at an instant before the current bin, which
// therefore stays open with ops queued for the shards; then it replays the
// rest of the stream. The engine must still match the detector.
func TestEngineFlushBeforeCurrentBin(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	recs := scenarioRecords()
	mid := len(recs) - 6 // half of the restoring announcements
	early := recs[mid].Time.Add(-10 * time.Minute)
	run := func(p interface {
		Process(*mrt.Record) []Outage
		Flush(time.Time) []Outage
	}) []Outage {
		var outs []Outage
		for _, r := range recs[:mid] {
			outs = append(outs, p.Process(r)...)
		}
		outs = append(outs, p.Flush(early)...)
		for _, r := range recs[mid:] {
			outs = append(outs, p.Process(r)...)
		}
		return append(outs, p.Flush(scenarioFlushAt())...)
	}
	want := run(New(DefaultConfig(), dict, cmap, nil))
	if len(want) == 0 {
		t.Fatal("reference produced no outages; comparison vacuous")
	}
	eng := NewEngine(DefaultConfig(), dict, cmap, nil, 4)
	defer eng.Close()
	if got := run(eng); !reflect.DeepEqual(got, want) {
		t.Errorf("outages diverge:\n engine:   %+v\n detector: %+v", got, want)
	}
}
