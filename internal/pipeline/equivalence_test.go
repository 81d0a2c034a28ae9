package pipeline

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kepler/internal/core"
	"kepler/internal/mrt"
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
			gotOuts, gotIncs := run(s.NewEngine(core.DefaultConfig(), shards), res.Records, nil)
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
// data plane attached: probe order, budget consumption and confirmation
// flags must all line up.
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

	seqDP := s.NewSimDataPlane(res, 5000)
	wantOuts, wantIncs := s.Run(res.Records, core.DefaultConfig(), seqDP)

	engDP := s.NewSimDataPlane(res, 5000)
	gotOuts, gotIncs := s.RunEngine(res.Records, core.DefaultConfig(), engDP)
	if !reflect.DeepEqual(gotOuts, wantOuts) {
		t.Errorf("outages diverge:\n engine:   %+v\n detector: %+v", gotOuts, wantOuts)
	}
	if !reflect.DeepEqual(gotIncs, wantIncs) {
		t.Errorf("incidents diverge (%d vs %d)", len(gotIncs), len(wantIncs))
	}
	if engDP.Used() != seqDP.Used() {
		t.Errorf("traceroute budget spent %d, detector spent %d", engDP.Used(), seqDP.Used())
	}
}
