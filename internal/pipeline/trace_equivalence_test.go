package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/core"
	"kepler/internal/live"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/simulate"
)

// runTraced replays a record stream with Config.Tracing enabled and a
// TraceRecorded hook installed, through either the sequential detector
// (shards == 1) or the sharded engine, returning the detection output plus
// the recorded evidence chains. It mirrors Run/RunEngine exactly so the
// results are comparable to an untraced reference run.
func runTraced(s *Stack, records []*mrt.Record, cfg core.Config, shards int) ([]core.Outage, []core.Incident, []core.OutageTrace) {
	cfg.Tracing = true
	var traces []core.OutageTrace
	hooks := core.Hooks{TraceRecorded: func(tr core.OutageTrace) { traces = append(traces, tr) }}

	if shards == 1 {
		det := s.NewDetector(cfg)
		det.SetHooks(hooks)
		var outages []core.Outage
		for _, rec := range records {
			outages = append(outages, det.Process(rec)...)
		}
		if len(records) > 0 {
			outages = append(outages, det.Flush(records[len(records)-1].Time)...)
		}
		return outages, det.Incidents(), traces
	}

	eng := s.NewEngine(cfg, shards)
	defer eng.Close()
	eng.SetHooks(hooks)
	n := 0
	for n < len(records) && records[n].Kind == mrt.KindRIB {
		n++
	}
	outages, _ := eng.BootstrapRIB(records[:n])
	res, _ := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(records[n:])), eng)
	outages = append(outages, res.Outages...)
	if res.Last.IsZero() && n > 0 {
		outages = append(outages, eng.Flush(records[n-1].Time)...)
	}
	return outages, eng.Incidents(), traces
}

// TestTracingEquivalence asserts the tentpole observability invariant:
// provenance tracing must be a pure observer. The same seeded scenario is
// replayed with tracing off (the reference) and with tracing on, through
// the sequential detector and the 4-shard engine, and the Outage and
// Incident output must be byte-for-byte identical in every run. It also
// pins the trace contract itself — one trace per resolved outage, index-
// aligned, carrying a non-empty evidence chain.
func TestTracingEquivalence(t *testing.T) {
	s := buildStack(t)
	target := bestTarget(s)
	if target == 0 {
		t.Fatal("no trackable facility")
	}
	ev := simulate.Event{
		ID: 0, Kind: simulate.EvFacility, Facility: target,
		Start:    tStart.Add(5 * 24 * time.Hour),
		Duration: 45 * time.Minute,
	}
	res, err := simulate.Render(s.World, []simulate.Event{ev}, tStart, tEnd, simulate.RenderConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: tracing off (DefaultConfig leaves Tracing false).
	wantOuts, wantIncs := s.Run(res.Records, core.DefaultConfig(), nil)
	if len(wantOuts) == 0 {
		t.Fatal("reference detector found nothing; equivalence would be vacuous")
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gotOuts, gotIncs, traces := runTraced(s, res.Records, core.DefaultConfig(), shards)
			if !reflect.DeepEqual(gotOuts, wantOuts) {
				t.Errorf("tracing perturbed outages:\n traced:   %+v\n reference: %+v", gotOuts, wantOuts)
			}
			if !reflect.DeepEqual(gotIncs, wantIncs) {
				t.Errorf("tracing perturbed incidents (%d vs %d)", len(gotIncs), len(wantIncs))
			}
			if len(traces) != len(gotOuts) {
				t.Fatalf("got %d traces for %d resolved outages; want 1:1", len(traces), len(gotOuts))
			}
			for i, tr := range traces {
				o := gotOuts[i]
				if tr.PoP != o.PoP || !tr.Start.Equal(o.Start) || !tr.End.Equal(o.End) {
					t.Errorf("trace %d misaligned: trace (%v %v..%v) vs outage (%v %v..%v)",
						i, tr.PoP, tr.Start, tr.End, o.PoP, o.Start, o.End)
				}
				if tr.Version != core.TraceVersion {
					t.Errorf("trace %d version = %d, want %d", i, tr.Version, core.TraceVersion)
				}
				if len(tr.Chapters) == 0 {
					t.Errorf("trace %d has no chapters; evidence chain missing", i)
				}
			}
		})
	}
}

// TestTracingOffRecordsNothing pins the zero-cost-when-disabled contract:
// with Config.Tracing false, an installed TraceRecorded hook never fires.
func TestTracingOffRecordsNothing(t *testing.T) {
	s := buildStack(t)
	target := bestTarget(s)
	if target == 0 {
		t.Fatal("no trackable facility")
	}
	ev := simulate.Event{
		ID: 0, Kind: simulate.EvFacility, Facility: target,
		Start:    tStart.Add(5 * 24 * time.Hour),
		Duration: 45 * time.Minute,
	}
	res, err := simulate.Render(s.World, []simulate.Event{ev}, tStart, tEnd, simulate.RenderConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	fired := 0
	det := s.NewDetector(core.DefaultConfig())
	det.SetHooks(core.Hooks{TraceRecorded: func(core.OutageTrace) { fired++ }})
	var outs []core.Outage
	for _, rec := range res.Records {
		outs = append(outs, det.Process(rec)...)
	}
	outs = append(outs, det.Flush(res.Records[len(res.Records)-1].Time)...)
	if len(outs) == 0 {
		t.Fatal("detector found nothing; suppression check would be vacuous")
	}
	if fired != 0 {
		t.Errorf("TraceRecorded fired %d times with tracing disabled; want 0", fired)
	}
}

// TestCheckpointStatsEquivalence extends the pure-observer invariant to the
// checkpoint counters and to the dirty tracking a first capture turns on:
// an engine that checkpoints at every bin close, with and without
// CheckpointStats installed, must emit exactly the outages and incidents of
// one that never checkpoints (and so never tracks), and the two
// checkpointing runs must write identical bytes at every barrier.
func TestCheckpointStatsEquivalence(t *testing.T) {
	s := buildStack(t)
	target := bestTarget(s)
	if target == 0 {
		t.Fatal("no trackable facility")
	}
	ev := simulate.Event{
		ID: 0, Kind: simulate.EvFacility, Facility: target,
		Start:    tStart.Add(5 * 24 * time.Hour),
		Duration: 45 * time.Minute,
	}
	res, err := simulate.Render(s.World, []simulate.Event{ev}, tStart, tEnd, simulate.RenderConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantOuts, wantIncs := s.RunEngine(res.Records, core.DefaultConfig(), nil, 4)
	if len(wantOuts) == 0 {
		t.Fatal("reference engine found nothing; equivalence would be vacuous")
	}

	run := func(stats *metrics.CheckpointStats) [][]byte {
		eng := s.NewEngine(core.DefaultConfig(), 4)
		defer eng.Close()
		if stats != nil {
			eng.SetCheckpointStats(stats)
		}
		var encs [][]byte
		eng.SetHooks(core.Hooks{BinClosed: func(end time.Time) {
			c, err := eng.Checkpoint()
			if err != nil {
				t.Errorf("checkpoint at %v: %v", end, err)
				return
			}
			enc, err := c.Encode()
			if err != nil {
				t.Errorf("encode at %v: %v", end, err)
			}
			encs = append(encs, enc)
		}})
		var outs []core.Outage
		for _, rec := range res.Records {
			outs = append(outs, eng.Process(rec)...)
		}
		outs = append(outs, eng.Flush(res.Records[len(res.Records)-1].Time)...)
		if !reflect.DeepEqual(outs, wantOuts) {
			t.Errorf("checkpointing (stats=%v) perturbed outages:\n got  %+v\n want %+v", stats != nil, outs, wantOuts)
		}
		if incs := eng.Incidents(); !reflect.DeepEqual(incs, wantIncs) {
			t.Errorf("checkpointing (stats=%v) perturbed incidents (%d vs %d)", stats != nil, len(incs), len(wantIncs))
		}
		return encs
	}
	stats := &metrics.CheckpointStats{}
	plain, observed := run(nil), run(stats)
	if len(plain) == 0 || len(plain) != len(observed) {
		t.Fatalf("%d checkpoints without stats, %d with", len(plain), len(observed))
	}
	for i := range plain {
		if !bytes.Equal(plain[i], observed[i]) {
			t.Fatalf("checkpoint %d differs with stats installed", i)
		}
	}
	if snap := stats.Snapshot(); snap.Captures != int64(len(observed)) || snap.ColdRebuilds == 0 || snap.ColdRebuilds == snap.Captures {
		t.Errorf("stats counted %d captures (%d cold) over %d checkpoints", snap.Captures, snap.ColdRebuilds, len(observed))
	}
}
