package core

import (
	"bytes"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/mrt"
)

// refRun replays the stream through a fresh sequential detector, recording
// the cumulative number of drained outages before each record index so a
// checkpoint-suffix run can be compared against the exact reference suffix.
func refRun(t *testing.T, recs []*mrt.Record, mkProber func() Prober) (outs []Outage, incs []Incident, countAt []int) {
	t.Helper()
	dict, cmap, _ := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	if mkProber != nil {
		d.SetProber(mkProber())
	}
	countAt = make([]int, len(recs)+1)
	for i, r := range recs {
		countAt[i] = len(outs)
		outs = append(outs, d.Process(r)...)
	}
	countAt[len(recs)] = len(outs)
	outs = append(outs, d.Flush(recs[len(recs)-1].Time)...)
	return outs, d.Incidents(), countAt
}

// checkpointEveryBin runs the stream through an engine that captures a
// checkpoint at every BinClosed hook (subject to keep), stopping at the cut
// index without a flush — the kill model. It returns the last kept
// encoding.
func checkpointEveryBin(t *testing.T, recs []*mrt.Record, cut int, mkProber func() Prober, keep func(*Checkpoint) bool) []byte {
	t.Helper()
	dict, cmap, _ := microWorld(t)
	e := NewEngine(DefaultConfig(), dict, cmap, nil)
	if mkProber != nil {
		e.SetProber(mkProber())
	}
	var enc []byte
	e.SetHooks(Hooks{BinClosed: func(end time.Time) {
		c, err := e.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint at %v: %v", end, err)
		}
		if keep != nil && !keep(c) {
			return
		}
		b, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		enc = b
	}})
	for _, r := range recs[:cut] {
		e.Process(r)
	}
	if enc == nil {
		t.Fatal("no checkpoint captured before the cut")
	}
	return enc
}

// restoreAndFinish restores the checkpoint into the reference engine New
// (shards == 0) or into NewEngine's, replays the record suffix — in one
// piece for shards == 1, else cut into that many time shards (see relay) —
// and returns the drained outages plus the full incident log.
func restoreAndFinish(t *testing.T, recs []*mrt.Record, enc []byte, shards int, mkProber func() Prober) ([]Outage, []Incident, *Checkpoint) {
	t.Helper()
	dict, cmap, _ := microWorld(t)
	c, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Records >= uint64(len(recs)) {
		t.Fatalf("checkpoint covers %d of %d records; nothing to re-ingest", c.Records, len(recs))
	}
	build := func() *Engine {
		e := New(DefaultConfig(), dict, cmap, nil)
		if shards > 0 {
			e = NewEngine(DefaultConfig(), dict, cmap, nil)
		}
		if mkProber != nil {
			e.SetProber(mkProber())
		}
		return e
	}
	outs, e := relay{build: build, from: enc}.run(t, recs, max(shards, 1))
	return outs, e.Incidents(), c
}

// scenarioStream builds the deterministic full-facility-divert stream of
// TestEngineScenario as a record slice: a promoted baseline, a full divert
// raising a PoP-level signal, keepalives that close the signal and verdict
// bins, restoration, and trailing keepalives. failAt is the divert instant.
func scenarioStream() (recs []*mrt.Record, failAt time.Time) {
	emit := func(at time.Time, divert bool) {
		pfx := 0
		for _, near := range []bgp.ASN{11, 12, 13, 14} {
			for k := 0; k < 3; k++ {
				far := bgp.ASN(21 + (pfx % 4))
				prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(pfx >> 8), byte(pfx), 0}), 24).String()
				if divert {
					recs = append(recs, mkUpdate(at, near, prefix, bgp.Path{near, 99, far}, nil))
				} else {
					comm := bgp.Communities{bgp.MakeCommunity(uint16(near), 51001)}
					recs = append(recs, mkUpdate(at, near, prefix, bgp.Path{near, far}, comm))
				}
				pfx++
			}
		}
	}
	ka := func(at time.Time) {
		recs = append(recs, mkUpdate(at, 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))
	}
	emit(tBase, false)
	at := tBase.Add(49 * time.Hour)
	ka(at)
	failAt = at.Add(time.Hour)
	emit(failAt, true)
	ka(failAt.Add(90 * time.Second)) // closes the signal bin: outage opens (or parks)
	ka(failAt.Add(4 * time.Minute))  // closes the next bin: probe verdicts collect
	emit(failAt.Add(30*time.Minute), false)
	ka(failAt.Add(32 * time.Minute)) // closes the restoration bin
	ka(failAt.Add(45 * time.Minute))
	return recs, failAt
}

// TestCheckpointRestoreEquivalence is the tentpole contract: a pipeline
// killed mid-stream and restored from its newest bin-barrier checkpoint,
// re-ingesting only the record suffix, emits exactly the outages and
// incidents of an uninterrupted run — restored into the reference engine
// (restore-shards=0), into NewEngine's (restore-shards=1), and into
// NewEngine's with the suffix cut into four time shards, each restarted
// from its predecessor's newest checkpoint (restore-shards=4).
func TestCheckpointRestoreEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		recs := genStream(seed, 4000)
		wantOuts, wantIncs, countAt := refRun(t, recs, nil)
		cut := len(recs) * 3 / 4
		enc := checkpointEveryBin(t, recs, cut, nil, nil)
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("seed=%d/restore-shards=%d", seed, shards), func(t *testing.T) {
				outs, incs, c := restoreAndFinish(t, recs, enc, shards, nil)
				wantSuffix := wantOuts[countAt[c.Records]:]
				if !reflect.DeepEqual(outs, wantSuffix) {
					t.Errorf("restored run drained %d outages, reference suffix has %d (from record %d)",
						len(outs), len(wantSuffix), c.Records)
				}
				if !reflect.DeepEqual(incs, wantIncs) {
					t.Errorf("restored incident log has %d entries, reference %d", len(incs), len(wantIncs))
				}
			})
		}
	}
}

// TestCheckpointScenarioMidOutage checkpoints while an outage is open (the
// bin after the full-divert signal) and verifies the restored pipeline
// still emits the reference outage with its original start, duration and
// diverted-path accounting.
func TestCheckpointScenarioMidOutage(t *testing.T) {
	recs, failAt := scenarioStream()
	wantOuts, wantIncs, countAt := refRun(t, recs, nil)
	if len(wantOuts) != 1 {
		t.Fatalf("reference run found %d outages, want 1", len(wantOuts))
	}
	// Keep only the signal-bin checkpoint: the outage must be open in it.
	signalEnd := failAt.Add(60 * time.Second)
	enc := checkpointEveryBin(t, recs, len(recs), nil, func(c *Checkpoint) bool {
		return c.BinStart.Equal(signalEnd)
	})
	c, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Open) != 1 || len(c.Open[0].Waiting) != 12 {
		t.Fatalf("checkpoint open outages = %+v, want one with 12 waiting paths", c.Open)
	}
	for _, shards := range []int{0, 1} {
		outs, incs, _ := restoreAndFinish(t, recs, enc, shards, nil)
		if want := wantOuts[countAt[c.Records]:]; !reflect.DeepEqual(outs, want) {
			t.Errorf("shards=%d: restored outages %+v, want %+v", shards, outs, want)
		}
		if !reflect.DeepEqual(incs, wantIncs) {
			t.Errorf("shards=%d: incident log diverges", shards)
		}
	}
}

// TestCheckpointDeterministicEncoding pins that the encoding does not depend
// on the constructor: the reference engine and NewEngine's produce
// byte-identical checkpoints at the same bin barrier. Captures are
// keyed by bin-end time (not hook count: the engine legitimately skips
// idle bin closes that the detector walks through) and taken both with an
// outage open and while it cools.
func TestCheckpointDeterministicEncoding(t *testing.T) {
	recs, failAt := scenarioStream()
	captureAt := map[time.Time]bool{
		failAt.Add(60 * time.Second): true, // signal bin: outage state in flight
		failAt.Add(31 * time.Minute): true, // restoration observed: cooling state
	}
	capture := func(newPipe func(hooks Hooks) (process func(r int), ckpt func() (*Checkpoint, error))) map[time.Time][]byte {
		encs := map[time.Time][]byte{}
		var ckptFn func() (*Checkpoint, error)
		hooks := Hooks{BinClosed: func(end time.Time) {
			if !captureAt[end] {
				return
			}
			c, err := ckptFn()
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Encode()
			if err != nil {
				t.Fatal(err)
			}
			encs[end] = b
		}}
		process, ckpt := newPipe(hooks)
		ckptFn = ckpt
		for i := range recs {
			process(i)
		}
		if len(encs) != len(captureAt) {
			t.Fatalf("captured %d of %d checkpoints", len(encs), len(captureAt))
		}
		return encs
	}

	dict, cmap, _ := microWorld(t)
	ref := capture(func(hooks Hooks) (func(int), func() (*Checkpoint, error)) {
		d := New(DefaultConfig(), dict, cmap, nil)
		d.SetHooks(hooks)
		return func(i int) { d.Process(recs[i]) }, d.Checkpoint
	})
	got := capture(func(hooks Hooks) (func(int), func() (*Checkpoint, error)) {
		e := NewEngine(DefaultConfig(), dict, cmap, nil)
		e.SetHooks(hooks)
		return func(i int) { e.Process(recs[i]) }, e.Checkpoint
	})
	for at, want := range ref {
		if !bytes.Equal(got[at], want) {
			t.Errorf("engine checkpoint at %v diverges from detector (%d vs %d bytes)", at, len(got[at]), len(want))
		}
	}
}

// TestCheckpointMidBinRejected pins the barrier-only contract: with route
// ops applied since the last bin close, per-bin divert state is in flight
// and a checkpoint must be refused rather than silently dropped.
func TestCheckpointMidBinRejected(t *testing.T) {
	recs := genStream(1, 500)
	dict, cmap, _ := microWorld(t)
	e := NewEngine(DefaultConfig(), dict, cmap, nil)
	for _, r := range recs {
		e.Process(r)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("mid-bin engine checkpoint succeeded; want barrier-only error")
	}
	d := New(DefaultConfig(), dict, cmap, nil)
	for _, r := range recs {
		d.Process(r)
	}
	if _, err := d.Checkpoint(); err == nil {
		t.Fatal("mid-bin detector checkpoint succeeded; want barrier-only error")
	}
}

// TestCheckpointRestoreWithProber extends the equivalence to the active
// measurement path: a checkpoint taken at the barrier where the
// confirmation is parked carries it, restore re-submits the campaign to the
// new prober, and the suffix run resolves it exactly as the uninterrupted
// run did.
func TestCheckpointRestoreWithProber(t *testing.T) {
	recs, _ := scenarioStream()
	confirmAll := func() Prober { return answering(true, true) }
	wantOuts, wantIncs, countAt := refRun(t, recs, confirmAll)
	if len(wantOuts) != 1 {
		t.Fatalf("reference run found %d outages, want 1", len(wantOuts))
	}
	enc := checkpointEveryBin(t, recs, len(recs), confirmAll, func(c *Checkpoint) bool {
		return len(c.Pending) > 0
	})
	c, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Pending) == 0 {
		t.Fatal("kept checkpoint has no pending campaigns")
	}

	// Restore must refuse to half-load a checkpoint whose campaigns have no
	// prober to run on.
	dict, cmap, _ := microWorld(t)
	bare := New(DefaultConfig(), dict, cmap, nil)
	if err := bare.RestoreFrom(c); err == nil {
		t.Fatal("restore with pending campaigns and no prober succeeded")
	}

	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("restore-shards=%d", shards), func(t *testing.T) {
			pr := confirmAll().(*scriptedProber)
			outs, incs, c := restoreAndFinish(t, recs, enc, shards, func() Prober { return pr })
			if len(pr.reqs) == 0 || pr.reqs[0].ID != c.Pending[0].ID {
				t.Fatalf("restore did not re-submit campaign %d first (got %d requests)", c.Pending[0].ID, len(pr.reqs))
			}
			wantSuffix := wantOuts[countAt[c.Records]:]
			if !reflect.DeepEqual(outs, wantSuffix) {
				t.Errorf("restored run drained %d outages, reference suffix has %d", len(outs), len(wantSuffix))
			}
			if !reflect.DeepEqual(incs, wantIncs) {
				t.Errorf("restored incident log has %d entries, reference %d", len(incs), len(wantIncs))
			}
		})
	}
}

// TestCheckpointVersionMismatch pins the refuse-don't-guess rule for
// foreign encodings.
func TestCheckpointVersionMismatch(t *testing.T) {
	c := &Checkpoint{Version: CheckpointVersion + 1}
	b, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(b); err == nil {
		t.Fatal("decode accepted a future checkpoint version")
	}
	dict, cmap, _ := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	if err := d.RestoreFrom(c); err == nil {
		t.Fatal("restore accepted a future checkpoint version")
	}
	e := NewEngine(DefaultConfig(), dict, cmap, nil)
	if err := e.RestoreFrom(c); err == nil {
		t.Fatal("engine restore accepted a future checkpoint version")
	}
}

// TestRestoreAfterProcessRejected pins that RestoreFrom is a boot-time
// operation only.
func TestRestoreAfterProcessRejected(t *testing.T) {
	recs := genStream(1, 50)
	dict, cmap, _ := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	d.Process(recs[0])
	if err := d.RestoreFrom(&Checkpoint{Version: CheckpointVersion}); err == nil {
		t.Fatal("restore after Process succeeded")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/checkpoint_v4.golden from the current encoder")

const goldenCheckpoint = "testdata/checkpoint_v4.golden"

// TestCheckpointGolden pins the version-4 byte layout: the scenario
// stream's checkpoint at the signal bin, with one IPv6 path that stays in
// the stable baseline through the outage (so paths, stable entries, an open
// outage with waiting keys and incidents are all present), must
// encode to exactly the checked-in bytes, and those bytes must decode and
// re-encode to themselves. A layout change that does not bump CheckpointVersion fails
// here; after a bump, regenerate with `go test ./internal/core -run
// TestCheckpointGolden -update` and rename the file.
func TestCheckpointGolden(t *testing.T) {
	recs, failAt := scenarioStream()
	recs = append([]*mrt.Record{mkUpdate(tBase, 11, "2a00:1450::/32", bgp.Path{11, 21},
		bgp.Communities{bgp.MakeCommunity(11, 51001)})}, recs...)
	dict, cmap, _ := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	var enc []byte
	d.SetHooks(Hooks{BinClosed: func(end time.Time) {
		if !end.Equal(failAt.Add(60 * time.Second)) {
			return
		}
		c, err := d.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if c.NumPaths() == 0 || c.NumStable() == 0 || len(c.Open) == 0 || len(c.Incidents) == 0 {
			t.Fatalf("golden state too thin: %d paths, %d stable, %d open, %d incidents",
				c.NumPaths(), c.NumStable(), len(c.Open), len(c.Incidents))
		}
		if enc, err = c.Encode(); err != nil {
			t.Fatal(err)
		}
	}})
	for _, r := range recs {
		d.Process(r)
	}
	if enc == nil {
		t.Fatal("signal bin never closed")
	}
	if *updateGolden {
		if err := os.WriteFile(goldenCheckpoint, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("checkpoint encoding (%d bytes) differs from %s (%d bytes): a layout change needs a CheckpointVersion bump and a new golden",
			len(enc), goldenCheckpoint, len(want))
	}
	c, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("Encode(Decode(golden)) != golden")
	}
}

// TestCheckpointCodecRoundTrip drives the field shapes the scenario world
// does not produce through the codec: IPv6 and IPv4-mapped prefixes, a
// default route, 32-bit ASNs, sub-second and zero times, empty paths and
// tag lists.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	at := time.Date(2016, 3, 1, 12, 0, 0, 123456789, time.UTC)
	key := func(peer bgp.ASN, pfx string) PathKey {
		return PathKey{Peer: peer, Prefix: netip.MustParsePrefix(pfx)}
	}
	paths := []pathRecord{
		{key: key(1, "0.0.0.0/0")},
		{key: key(4200000000, "2001:db8::/32"), path: bgp.Path{4200000000, 3356, 1},
			tags: []pathTag{{pop: colo.IXPPoP(9), ends: popEnd{3356, 1}, since: at}, {pop: colo.CityPoP(1<<32 - 1), since: time.Time{}}}},
		{key: key(65000, "::ffff:10.0.0.0/104"), path: bgp.Path{65000}},
	}
	type stableRec struct {
		pop  colo.PoP
		ends popEnd
		key  PathKey
	}
	stable := []stableRec{{colo.FacilityPoP(3), popEnd{3356, 1}, key(4200000000, "2001:db8::/32")}}

	c := &Checkpoint{
		Version:  CheckpointVersion,
		BinStart: at,
		Records:  1 << 40,
		OpSeq:    1<<64 - 1,
		ProbeSeq: 7,
	}
	for _, p := range paths {
		k := makeSortKey(p.key)
		c.paths.pages = append(c.paths.pages, &page[sortKey]{keys: []sortKey{k}, enc: appendPathRecord(nil, k, p.path, p.tags)})
	}
	c.paths = sectionOf(c.paths.pages)
	for _, e := range stable {
		k := stableKey{e.pop, e.ends.near, makeSortKey(e.key)}
		c.stable.pages = append(c.stable.pages, &page[stableKey]{keys: []stableKey{k}, enc: appendStableRecord(nil, e.pop, e.ends, k.sortKey)})
	}
	c.stable = sectionOf(c.stable.pages)
	c.Pending = []PendingProbeCheckpoint{{ID: 3, At: at, Deadline: at.Add(time.Hour), Waiting: []PathKeyCheckpoint{ckptKey(key(1, "10.0.0.0/8"))}}}
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPaths() != len(paths) || got.NumStable() != len(stable) {
		t.Fatalf("decoded %d paths and %d stable entries, want %d and %d", got.NumPaths(), got.NumStable(), len(paths), len(stable))
	}
	var gotPaths []pathRecord
	var rec pathRecord
	if err := got.paths.each(func(r *ckptReader) {
		r.pathRecord(&rec)
		gotPaths = append(gotPaths, pathRecord{rec.key, append(bgp.Path(nil), rec.path...), append([]pathTag(nil), rec.tags...)})
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPaths, paths) {
		t.Fatalf("paths diverge:\n got  %+v\n want %+v", gotPaths, paths)
	}
	var gotStable []stableRec
	if err := got.stable.each(func(r *ckptReader) {
		pop, ends, key := r.stableRecord()
		gotStable = append(gotStable, stableRec{pop, ends, key})
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotStable, stable) {
		t.Fatalf("stable entries diverge:\n got  %+v\n want %+v", gotStable, stable)
	}
	got.paths, got.stable = c.paths, c.stable
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("header or small sections diverge:\n got  %+v\n want %+v", got, c)
	}
}

// TestDecodeCheckpointMalformed pins that no cut of a valid encoding and no
// appended byte decodes, and that none of them panics: the length checks,
// not luck, reject them.
func TestDecodeCheckpointMalformed(t *testing.T) {
	golden, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	for n := range golden {
		if _, err := DecodeCheckpoint(golden[:n]); err == nil {
			t.Fatalf("decoded a checkpoint truncated to %d of %d bytes", n, len(golden))
		}
	}
	if _, err := DecodeCheckpoint(append(golden[:len(golden):len(golden)], 0)); err == nil {
		t.Fatal("decoded a checkpoint with a trailing byte")
	}
	// A count far beyond the input must be refused before it sizes anything.
	huge := append([]byte(checkpointMagic), byte(CheckpointVersion), 0, 0, 0, 0, 0)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := DecodeCheckpoint(huge); err == nil {
		t.Fatal("decoded a checkpoint claiming 2^63 paths")
	}
	if _, err := DecodeCheckpoint([]byte(`{"version":2,"records":10}`)); err == nil {
		t.Fatal("decoded a version-2 JSON checkpoint")
	}
}

// FuzzDecodeCheckpoint feeds the parser hostile bytes. Whatever decodes
// must re-encode, and that encoding must be a fixed point of
// decode-then-encode.
func FuzzDecodeCheckpoint(f *testing.F) {
	golden, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte(checkpointMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		c2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		enc2, err := c2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not a fixed point of decode-then-encode")
		}
	})
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
	enc := checkpointEveryBin(t, recs, cut, nil, nil)
	c, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	dict, cmap, _ := microWorld(t)

	// Uninterrupted run: the reference encoding at every bin barrier.
	full := map[time.Time][]byte{}
	e1 := NewEngine(DefaultConfig(), dict, cmap, nil)
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
	e2 := NewEngine(DefaultConfig(), dict, cmap, nil)
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
