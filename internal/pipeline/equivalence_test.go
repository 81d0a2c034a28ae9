package pipeline

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kepler/internal/core"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/probe"
	"kepler/internal/simulate"
)

// TestEngineEquivalenceOnSimulation drives the same seeded simulation
// stream — a facility outage rendered over the full synthetic Internet —
// through the reference engine and Stack.NewEngine's, asserting
// byte-for-byte identical Outage and Incident output. The subtests pass
// Stack.NewEngine the shard counts the benchmark harness may pass it (it
// passes GOMAXPROCS), which must not change the engine. This is the
// system-level counterpart of the randomized core test: real dictionary,
// real colocation map, real noise. The rendered archive leads with a table
// dump, so the engine also streams a full RIB through Process.
func TestEngineEquivalenceOnSimulation(t *testing.T) {
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
	if res.Records[0].Kind != mrt.KindRIB {
		t.Fatal("rendered archive does not lead with a table dump; the RIB ingest check would be vacuous")
	}

	wantOuts, wantIncs := s.Run(res.Records, core.DefaultConfig(), nil)
	if len(wantOuts) == 0 {
		t.Fatal("reference detector found nothing; equivalence would be vacuous")
	}
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gotOuts, gotIncs := run(s.NewEngine(core.DefaultConfig(), shards), res.Records)
			if !reflect.DeepEqual(gotOuts, wantOuts) {
				t.Errorf("outages diverge:\n engine:   %+v\n detector: %+v", gotOuts, wantOuts)
			}
			if !reflect.DeepEqual(gotIncs, wantIncs) {
				t.Errorf("incidents diverge (%d vs %d)", len(gotIncs), len(wantIncs))
			}
		})
	}
}

// TestEngineEquivalenceWithDataPlane repeats the check with the simulated
// data plane attached through a probe scheduler: the campaigns, the
// probes they execute and the confirmation flags must all line up.
func TestEngineEquivalenceWithDataPlane(t *testing.T) {
	s := buildStack(t)
	target := bestTarget(s)
	ev := simulate.Event{
		ID: 0, Kind: simulate.EvFacility, Facility: target,
		Start:    tStart.Add(5 * 24 * time.Hour),
		Duration: time.Hour,
	}
	res, err := simulate.Render(s.World, []simulate.Event{ev}, tStart, tEnd, simulate.RenderConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}

	var runs [2]struct {
		dp   *SimDataPlane
		m    metrics.ProbeStats
		outs []core.Outage
		incs []core.Incident
	}
	for i, eng := range []*core.Engine{s.NewDetector(core.DefaultConfig()), s.NewEngine(core.DefaultConfig(), 0)} {
		r := &runs[i]
		r.dp = s.NewSimDataPlane(res)
		sched := probe.NewScheduler(r.dp, probe.Config{Metrics: &r.m})
		eng.SetProber(sched)
		r.outs, r.incs = run(eng, res.Records)
		sched.Close()
	}
	want, got := &runs[0], &runs[1]
	if !reflect.DeepEqual(got.outs, want.outs) {
		t.Errorf("outages diverge:\n engine:   %+v\n detector: %+v", got.outs, want.outs)
	}
	if !reflect.DeepEqual(got.incs, want.incs) {
		t.Errorf("incidents diverge (%d vs %d)", len(got.incs), len(want.incs))
	}
	if want.m.Campaigns.Load() == 0 {
		t.Fatal("detector submitted no campaigns; the comparison is vacuous")
	}
	if g, w := got.m.Snapshot(), want.m.Snapshot(); g != w {
		t.Errorf("engine's probe counters %+v, detector's %+v", g, w)
	}
	if got.dp.Used() != want.dp.Used() {
		t.Errorf("engine ran %d traceroutes, detector %d", got.dp.Used(), want.dp.Used())
	}
}
