package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kepler/internal/mrt"
)

// ribLead splits a genStream into its leading same-instant baseline burst
// re-kinded as table-dump records plus the live update suffix — the shape
// of a real archive: RIB snapshot first, then the stream.
func ribLead(recs []*mrt.Record) (rib, updates []*mrt.Record) {
	n := 0
	for n < len(recs) && recs[n].Time.Equal(recs[0].Time) {
		n++
	}
	rib = make([]*mrt.Record, n)
	for i, r := range recs[:n] {
		cp := *r
		cp.Kind = mrt.KindRIB
		rib[i] = &cp
	}
	return rib, recs[n:]
}

// TestBootstrapRIBMatchesProcess is the bulk-load correctness contract:
// feeding the leading table dump through BootstrapRIB and then streaming
// the updates must emit exactly what one-at-a-time Process emits over the
// identical record sequence — which in turn matches the sequential
// detector.
func TestBootstrapRIBMatchesProcess(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		recs := genStream(seed, 3000)
		rib, updates := ribLead(recs)
		if len(rib) == 0 || len(updates) == 0 {
			t.Fatalf("seed=%d: degenerate split rib=%d updates=%d", seed, len(rib), len(updates))
		}
		full := append(append([]*mrt.Record(nil), rib...), updates...)
		wantOuts, wantIncs := runDetector(t, full, nil)

		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				dict, cmap, _ := microWorld(t)
				e := NewEngine(DefaultConfig(), dict, cmap, nil, shards)
				defer e.Close()
				outs, err := e.BootstrapRIB(rib)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range updates {
					outs = append(outs, e.Process(r)...)
				}
				outs = append(outs, e.Flush(updates[len(updates)-1].Time)...)
				if !reflect.DeepEqual(outs, wantOuts) {
					t.Errorf("outages diverge:\n bootstrap: %+v\n detector:  %+v", outs, wantOuts)
				}
				if incs := e.Incidents(); !reflect.DeepEqual(incs, wantIncs) {
					t.Errorf("incidents diverge:\n bootstrap: %+v\n detector:  %+v", incs, wantIncs)
				}
			})
		}
	}
}

// TestBootstrapRIBRejectsNonRIB pins the validation contract: a stream
// record in the dump rejects the whole call before anything is ingested.
func TestBootstrapRIBRejectsNonRIB(t *testing.T) {
	recs := genStream(1, 200)
	rib, updates := ribLead(recs)
	dict, cmap, _ := microWorld(t)
	e := NewEngine(DefaultConfig(), dict, cmap, nil, 4)
	defer e.Close()
	if _, err := e.BootstrapRIB(append(rib, updates[0])); err == nil {
		t.Fatal("BootstrapRIB accepted a non-RIB record")
	}
	if got := e.Stats().Records; got != 0 {
		t.Fatalf("rejected bootstrap ingested %d records, want 0", got)
	}
	// The engine must remain fully usable after the rejection.
	if _, err := e.BootstrapRIB(rib); err != nil {
		t.Fatalf("clean bootstrap after rejection: %v", err)
	}
}

// TestCheckpointRoundTripPooledState drives the pooled path-state
// representation through checkpoint, restore and further churn: after a
// restore (which builds states fresh, bypassing the free lists) and
// continued ingestion (which fills and drains them), every checkpoint taken
// at a common bin barrier must be byte-identical to the uninterrupted
// run's. Recycled slabs leaking stale tags or paths into the encoding
// would diverge here.
func TestCheckpointRoundTripPooledState(t *testing.T) {
	recs := genStream(5, 4000)
	cut := len(recs) / 2
	enc := checkpointEveryBin(t, recs, cut, 4, nil, nil)
	c, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	dict, cmap, _ := microWorld(t)

	// Uninterrupted run: the reference encoding at every bin barrier.
	full := map[time.Time][]byte{}
	e1 := NewEngine(DefaultConfig(), dict, cmap, nil, 4)
	e1.SetHooks(Hooks{BinClosed: func(end time.Time) {
		cc, err := e1.Checkpoint()
		if err != nil {
			t.Errorf("reference checkpoint at %v: %v", end, err)
			return
		}
		b, err := cc.Encode()
		if err != nil {
			t.Errorf("reference encode at %v: %v", end, err)
			return
		}
		full[end] = b
	}})
	for _, r := range recs {
		e1.Process(r)
	}
	e1.Close()

	// Restored run over the suffix, checkpointing at every barrier.
	e2 := NewEngine(DefaultConfig(), dict, cmap, nil, 4)
	defer e2.Close()
	if err := e2.RestoreFrom(c); err != nil {
		t.Fatal(err)
	}
	matched := 0
	e2.SetHooks(Hooks{BinClosed: func(end time.Time) {
		cc, err := e2.Checkpoint()
		if err != nil {
			t.Errorf("restored checkpoint at %v: %v", end, err)
			return
		}
		b, err := cc.Encode()
		if err != nil {
			t.Errorf("restored encode at %v: %v", end, err)
			return
		}
		want, ok := full[end]
		if !ok {
			return
		}
		matched++
		if !bytes.Equal(b, want) {
			t.Errorf("checkpoint at %v diverges after restore: %d bytes vs reference %d", end, len(b), len(want))
		}
	}})
	for _, r := range recs[c.Records:] {
		e2.Process(r)
	}
	if matched == 0 {
		t.Fatal("no common bin barriers compared")
	}
}
