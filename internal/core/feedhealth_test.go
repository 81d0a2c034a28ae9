package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/mrt"
)

// runFeed replays the stream and returns the fired feed transitions in
// order, plus the detection output and the final watchdog snapshot.
func runFeed(t *testing.T, r *Engine, recs []*mrt.Record) (trs []bgpstream.FeedTransition, outs []Outage, incs []Incident, snap bgpstream.FeedSnapshot) {
	t.Helper()
	r.SetHooks(Hooks{
		FeedDegraded:  func(tr bgpstream.FeedTransition) { trs = append(trs, tr) },
		FeedRecovered: func(tr bgpstream.FeedTransition) { trs = append(trs, tr) },
	})
	for _, rec := range recs {
		outs = append(outs, r.Process(rec)...)
	}
	last := recs[len(recs)-1].Time
	outs = append(outs, r.Flush(last)...)
	snap, ok := r.FeedHealth(last)
	if !ok {
		t.Fatal("FeedHealth reported no watchdog despite FeedSilence > 0")
	}
	return trs, outs, r.Incidents(), snap
}

// TestFeedEventsEngineDetectorEquivalence pins the watchdog's determinism
// contract: the reference engine and NewEngine's fire identical feed
// transition sequences for the same record stream, run in one piece
// (shards=1) or cut into four time shards restarted from checkpoints
// (shards=4, see relay), and enabling the watchdog changes nothing about
// the detection output.
func TestFeedEventsEngineDetectorEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		recs := genStream(seed, 3000)
		cfg := DefaultConfig()
		cfg.FeedSilence = 20 * time.Minute

		dict, cmap, _ := microWorld(t)
		d := New(cfg, dict, cmap, nil)
		wantTrs, wantOuts, wantIncs, wantSnap := runFeed(t, d, recs)
		if len(wantTrs) == 0 {
			t.Fatalf("seed=%d: stream produced no feed transitions; silence threshold never crossed", seed)
		}

		// Baseline without the watchdog: detection output must be identical.
		plain := New(DefaultConfig(), dict, cmap, nil)
		var plainOuts []Outage
		for _, rec := range recs {
			plainOuts = append(plainOuts, plain.Process(rec)...)
		}
		plainOuts = append(plainOuts, plain.Flush(recs[len(recs)-1].Time)...)
		if !reflect.DeepEqual(plainOuts, wantOuts) {
			t.Errorf("seed=%d: watchdog changed the outage output", seed)
		}
		if !reflect.DeepEqual(plain.Incidents(), wantIncs) {
			t.Errorf("seed=%d: watchdog changed the incident log", seed)
		}

		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				var trs []bgpstream.FeedTransition
				logTr := func(tr bgpstream.FeedTransition) { trs = append(trs, tr) }
				outs, e := relay{
					build:  func() *Engine { return NewEngine(cfg, dict, cmap, nil) },
					hooks:  func(*Engine) Hooks { return Hooks{FeedDegraded: logTr, FeedRecovered: logTr} },
					logged: func() int { return len(trs) },
					rewind: func(n int) { trs = trs[:n] },
				}.run(t, recs, shards)
				snap, _ := e.FeedHealth(recs[len(recs)-1].Time)
				if !reflect.DeepEqual(trs, wantTrs) {
					t.Errorf("feed transitions diverge: engine fired %d, detector %d\nengine: %+v\ndetector: %+v",
						len(trs), len(wantTrs), trs, wantTrs)
				}
				if !reflect.DeepEqual(outs, wantOuts) {
					t.Errorf("outage output diverges")
				}
				if !reflect.DeepEqual(e.Incidents(), wantIncs) {
					t.Errorf("incident log diverges")
				}
				if !reflect.DeepEqual(snap, wantSnap) {
					t.Errorf("final feed snapshot diverges:\nengine: %+v\ndetector: %+v", snap, wantSnap)
				}
			})
		}
	}
}

// TestFeedCheckpointRestoreEquivalence verifies the watchdog state
// round-trips through Checkpoint/RestoreFrom: a restored pipeline replaying
// the record suffix fires exactly the feed transitions the uninterrupted
// reference fired after the checkpoint bin, restored into the reference
// engine (restore-shards=0) or NewEngine's (restore-shards=1).
func TestFeedCheckpointRestoreEquivalence(t *testing.T) {
	recs := genStream(2, 3000)
	cfg := DefaultConfig()
	cfg.FeedSilence = 20 * time.Minute
	dict, cmap, _ := microWorld(t)

	ref := New(cfg, dict, cmap, nil)
	wantTrs, _, _, _ := runFeed(t, ref, recs)
	if len(wantTrs) == 0 {
		t.Fatal("stream produced no feed transitions")
	}

	// Checkpoint from the engine's BinClosed hooks up to the cut.
	e := NewEngine(cfg, dict, cmap, nil)
	var enc []byte
	e.SetHooks(Hooks{BinClosed: func(end time.Time) {
		c, err := e.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint at %v: %v", end, err)
		}
		b, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		enc = b
	}})
	cut := len(recs) * 3 / 4
	for _, r := range recs[:cut] {
		e.Process(r)
	}
	if enc == nil {
		t.Fatal("no checkpoint captured before the cut")
	}
	c, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Feed.Sessions) == 0 {
		t.Fatal("checkpoint carries no watchdog session state")
	}

	// Transitions the reference fired strictly after the checkpoint bin.
	var wantSuffix []bgpstream.FeedTransition
	for _, tr := range wantTrs {
		if tr.At.After(c.BinStart) {
			wantSuffix = append(wantSuffix, tr)
		}
	}

	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("restore-shards=%d", shards), func(t *testing.T) {
			r := New(cfg, dict, cmap, nil)
			if shards == 1 {
				r = NewEngine(cfg, dict, cmap, nil)
			}
			if err := r.RestoreFrom(c); err != nil {
				t.Fatal(err)
			}
			trs, _, _, _ := runFeed(t, r, recs[c.Records:])
			if !reflect.DeepEqual(trs, wantSuffix) {
				t.Errorf("restored run fired %d transitions, reference suffix has %d\nrestored: %+v\nreference: %+v",
					len(trs), len(wantSuffix), trs, wantSuffix)
			}
		})
	}
}
