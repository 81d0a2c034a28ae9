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

// runProbed drives a record stream through an engine wired to the probe
// scheduler — the reference engine for shards == 0, else Stack.NewEngine's,
// passed shards — and returns the completed outages and the incidents.
func runProbed(t *testing.T, s *Stack, records []*mrt.Record, cfg core.Config, sched *probe.Scheduler, shards int) ([]core.Outage, []core.Incident) {
	t.Helper()
	eng := s.NewDetector(cfg)
	if shards > 0 {
		eng = s.NewEngine(cfg, shards)
	}
	eng.SetProber(sched)
	return run(eng, records)
}

// TestProbeSchedulerEquivalence pins that the data-plane path is a pure
// function of the record stream: Stack.Run's output (the reference
// detector behind a default four-worker scheduler) must come out byte for
// byte the same through one worker or four, and through the reference
// engine (shards=0) or Stack.NewEngine's, passed shards. Promotion
// re-observes at the original signal time, and park-time provisional
// watches capture the returns of the deferred bin, so even restoration
// instants line up. Run under -race this also exercises the scheduler's
// workers against bin closes.
func TestProbeSchedulerEquivalence(t *testing.T) {
	s := buildStack(t)
	target := bestTarget(s)
	if target == 0 {
		t.Fatal("no trackable facility")
	}
	ev := simulate.Event{
		ID: 0, Kind: simulate.EvFacility, Facility: target,
		Start:    tStart.Add(5 * 24 * time.Hour),
		Duration: time.Hour,
	}
	res, err := simulate.Render(s.World, []simulate.Event{ev}, tStart, tEnd, simulate.RenderConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}

	wantOuts, wantIncs := s.Run(res.Records, core.DefaultConfig(), s.NewSimDataPlane(res))
	if len(wantOuts) == 0 {
		t.Fatal("reference run found nothing; equivalence would be vacuous")
	}

	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					m := &metrics.ProbeStats{}
					sched := probe.NewScheduler(s.NewSimDataPlane(res), probe.Config{Workers: workers, Metrics: m})
					defer sched.Close()
					gotOuts, gotIncs := runProbed(t, s, res.Records, core.DefaultConfig(), sched, shards)
					if !reflect.DeepEqual(gotOuts, wantOuts) {
						t.Errorf("outages diverge (%d, Stack.Run %d):\n got:      %+v\n Stack.Run: %+v",
							len(gotOuts), len(wantOuts), gotOuts, wantOuts)
					}
					if !reflect.DeepEqual(gotIncs, wantIncs) {
						t.Errorf("incidents diverge (%d, Stack.Run %d)", len(gotIncs), len(wantIncs))
					}
					if m.Campaigns.Load() == 0 {
						t.Error("no campaigns submitted; equivalence would be vacuous")
					}
				})
			}
		})
	}
}

// TestProbeSchedulerBudgetStarvation is the end-to-end budget scenario: a
// one-probe budget over a window wider than the stream leaves later
// campaigns unmeasured. Confirmation campaigns then promote unvalidated
// (the no-data contract), so every located outage past the first
// verdict must carry DataPlaneChecked=false, and the denial counter must
// account for the starved probes.
func TestProbeSchedulerBudgetStarvation(t *testing.T) {
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

	m := &metrics.ProbeStats{}
	sched := probe.NewScheduler(s.NewSimDataPlane(res), probe.Config{
		Workers: 4, Budget: 1, Window: 365 * 24 * time.Hour, Metrics: m,
	})
	defer sched.Close()
	outs, _ := runProbed(t, s, res.Records, core.DefaultConfig(), sched, 1)

	if m.Executed.Load() != 1 {
		t.Fatalf("executed = %d probes under a 1-probe budget", m.Executed.Load())
	}
	if m.Denied.Load() == 0 {
		t.Fatal("budget starvation denied nothing; scenario is vacuous")
	}
	checked := 0
	for _, o := range outs {
		if o.DataPlaneChecked {
			checked++
		}
	}
	if checked > 1 {
		t.Fatalf("%d outages claim data-plane validation under a 1-probe budget", checked)
	}
}
