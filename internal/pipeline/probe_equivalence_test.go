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

// runProbed drives a record stream through an engine wired to the async
// probe scheduler and returns the completed outages.
func runProbed(t *testing.T, s *Stack, records []*mrt.Record, cfg core.Config, sched *probe.Scheduler, shards int) []core.Outage {
	t.Helper()
	eng := s.NewEngine(cfg, shards)
	defer eng.Close()
	eng.SetProber(sched)
	outs, _ := run(eng, records, nil)
	return outs
}

// locatedKey reduces an outage to its located identity — epicenter, start
// and data-plane verdict — for readable set diffs when the byte-for-byte
// comparison below fails.
func locatedKey(o core.Outage) string {
	return fmt.Sprintf("%s|%d|%v|%v", o.PoP, o.Start.Unix(), o.Confirmed, o.DataPlaneChecked)
}

// TestProbeSchedulerEquivalence is the async-vs-sync pin: with an
// unbounded budget and an instant backend, the scheduler-driven engine
// must emit byte-for-byte the outages of the synchronous batch DataPlane
// path over a full simulated scenario — promotion re-observes at the
// original signal time, and park-time provisional watches capture the
// returns of the deferred bin, so even restoration instants line up. Run
// under -race this also exercises the worker/barrier synchronization.
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

	seqDP := s.NewSimDataPlane(res, 1<<30)
	wantOuts, _ := s.Run(res.Records, core.DefaultConfig(), seqDP)
	if len(wantOuts) == 0 {
		t.Fatal("reference detector found nothing; equivalence would be vacuous")
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := &metrics.ProbeStats{}
			engDP := s.NewSimDataPlane(res, 1<<30)
			sched := probe.NewScheduler(probe.OverDataPlane(engDP), probe.Config{
				Workers: 4, Metrics: m, // unbounded budget, no cache: exact sync parity
			})
			defer sched.Close()
			gotOuts := runProbed(t, s, res.Records, core.DefaultConfig(), sched, shards)

			if !reflect.DeepEqual(gotOuts, wantOuts) {
				want := map[string]bool{}
				for _, o := range wantOuts {
					want[locatedKey(o)] = true
				}
				got := map[string]bool{}
				for _, o := range gotOuts {
					got[locatedKey(o)] = true
				}
				for k := range want {
					if !got[k] {
						t.Errorf("sync located %s, async did not", k)
					}
				}
				for k := range got {
					if !want[k] {
						t.Errorf("async located %s, sync did not", k)
					}
				}
				t.Errorf("outages diverge byte-for-byte (async %d, sync %d):\n async: %+v\n sync:  %+v",
					len(gotOuts), len(wantOuts), gotOuts, wantOuts)
			}
			if m.Campaigns.Load() == 0 {
				t.Error("async run submitted no campaigns; equivalence would be vacuous")
			}
			if m.Denied.Load() != 0 {
				t.Errorf("unbounded budget denied %d probes", m.Denied.Load())
			}
		})
	}
}

// TestProbeSchedulerBudgetStarvation is the end-to-end budget scenario: a
// one-probe budget over a window wider than the stream leaves later
// campaigns unmeasured. Confirmation campaigns then promote unvalidated
// (the sync no-data contract), so every located outage past the first
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
	engDP := s.NewSimDataPlane(res, 1<<30)
	sched := probe.NewScheduler(probe.OverDataPlane(engDP), probe.Config{
		Workers: 4, Budget: 1, Window: 365 * 24 * time.Hour, Metrics: m,
	})
	defer sched.Close()
	outs := runProbed(t, s, res.Records, core.DefaultConfig(), sched, 2)

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
