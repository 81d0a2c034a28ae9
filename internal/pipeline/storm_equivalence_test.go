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

// stormRecords renders the storm workload's outage mix (30 facility, 12
// IXP, 100 link and 20 AS outages, 15% partial, two session resets, 5%
// sticky restorations) compressed into the 30 days from tStart, as
// BenchmarkRender in internal/simulate does.
func stormRecords(t *testing.T, s *Stack) []*mrt.Record {
	t.Helper()
	end := tStart.Add(30 * 24 * time.Hour)
	sched := simulate.GenerateSchedule(s.World, simulate.ScheduleConfig{
		Seed:            2,
		Start:           tStart.Add(3 * 24 * time.Hour),
		End:             end.Add(-24 * time.Hour),
		FacilityOutages: 30, IXPOutages: 12, LinkOutages: 100, ASOutages: 20,
		PartialFraction: 0.15, MinMembers: 6,
	})
	res, err := simulate.Render(s.World, sched, tStart, end, simulate.RenderConfig{
		Seed: 3, SessionResets: 2, StickyFraction: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Records
}

// overlapping reports whether two of the outages were open at once.
func overlapping(outs []core.Outage) bool {
	for i := range outs {
		for j := i + 1; j < len(outs); j++ {
			if outs[i].Start.Before(outs[j].End) && outs[j].Start.Before(outs[i].End) {
				return true
			}
		}
	}
	return false
}

// TestEngineEquivalenceOnStorm drives a month-long multi-outage storm
// through the sequential Detector and the sharded Engine, with the paper's
// per-AS grouping and with its aggregate-only ablation, asserting identical
// Outage and Incident output. Outages overlap, so several restoration
// watches are live in one bin, and the ablation's whole-PoP baseline count
// runs across shards.
func TestEngineEquivalenceOnStorm(t *testing.T) {
	s := buildStack(t)
	records := stormRecords(t, s)
	ablation := core.DefaultConfig()
	ablation.DisablePerASGrouping = true
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{{"per-AS", core.DefaultConfig()}, {"aggregate", ablation}} {
		t.Run(tc.name, func(t *testing.T) {
			wantOuts, wantIncs := s.Run(records, tc.cfg, nil)
			if !overlapping(wantOuts) {
				t.Fatalf("reference detector found %d outages, none of them concurrent; the storm would not exercise shared watches", len(wantOuts))
			}
			t.Logf("reference: %d outages, %d incidents", len(wantOuts), len(wantIncs))
			for _, shards := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					gotOuts, gotIncs := s.RunEngine(records, tc.cfg, nil, shards)
					if !reflect.DeepEqual(gotOuts, wantOuts) {
						t.Errorf("outages diverge (%d vs %d):\n engine:   %+v\n detector: %+v", len(gotOuts), len(wantOuts), gotOuts, wantOuts)
					}
					if !reflect.DeepEqual(gotIncs, wantIncs) {
						t.Errorf("incidents diverge (%d vs %d)", len(gotIncs), len(wantIncs))
					}
				})
			}
		})
	}
}
