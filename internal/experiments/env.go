// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 5 and 6) on the synthetic substrate. Each experiment
// returns structured results plus a Render() string that prints the same
// rows/series the paper reports; bench_test.go exposes one benchmark per
// artifact and cmd/kepler-eval prints them all.
//
// Absolute numbers differ from the paper — the substrate is a laptop-scale
// simulator, not five years of RouteViews/RIS — but the shapes under test
// (who wins, plateaus, crossovers, skews) are asserted in this package's
// tests, each against the paper's figure it reproduces.
package experiments

import (
	"sync"
	"time"

	"kepler/internal/core"
	"kepler/internal/pipeline"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

// Span of the historical analysis, matching the paper's 2012–2016 window.
var (
	HistStart = time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	HistEnd   = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
)

// Env bundles a world, a rendered scenario and the detection results over
// it — the shared input of the historical experiments.
type Env struct {
	Stack     *pipeline.Stack
	Schedule  []simulate.Event
	Res       *simulate.Result
	Outages   []core.Outage
	Incidents []core.Incident
	Start     time.Time
	End       time.Time
}

// histConfig is the world used for the five-year analysis at seed offset
// s; s = 0 is the canonical world.
func histConfig(s int64) topology.Config {
	cfg := topology.DefaultConfig()
	cfg.Seed = 2012 + 101*s
	return cfg
}

// histSchedule injects the paper-scale incident mix: 103 facility and 56
// IXP outages over five years (Section 6.1), on a bed of link- and AS-level
// background noise. s is the seed offset of histConfig.
func histSchedule(s int64) simulate.ScheduleConfig {
	return simulate.ScheduleConfig{
		Seed:            41 + 7*s,
		Start:           HistStart.Add(4 * 24 * time.Hour), // past the stability window
		End:             HistEnd.Add(-4 * 24 * time.Hour),
		FacilityOutages: 103,
		IXPOutages:      56,
		LinkOutages:     220,
		ASOutages:       40,
		PartialFraction: 0.15,
		// Target populated infrastructure: the paper's detected set is by
		// construction the trackable one, and outages of single-tenant
		// sheds are invisible to any BGP-based system.
		MinMembers: 8,
	}
}

var (
	histOnce sync.Once
	histEnv  *Env
	histErr  error
)

// Historical returns the shared five-year environment, built on first use.
func Historical() (*Env, error) {
	histOnce.Do(func() {
		histEnv, histErr = buildHistorical()
	})
	return histEnv, histErr
}

func buildHistorical() (*Env, error) {
	env, err := renderHistorical(0)
	if err != nil {
		return nil, err
	}
	// Detection runs with the targeted-measurement backend, as the real
	// system does: unresolved localizations consult it, and inferred
	// epicenters are cross-checked (Section 4.4).
	dp := env.Stack.NewSimDataPlane(env.Res)
	env.Outages, env.Incidents = env.Stack.Run(env.Res.Records, core.DefaultConfig(), dp)
	return env, nil
}

// renderHistorical builds the five-year world, its sources and its
// rendered archive at seed offset s (topology 2012+101s, schedule 41+7s,
// render 43+13s, sources 7+s), without running detection. s = 0 is the
// canonical world.
func renderHistorical(s int64) (*Env, error) {
	w, err := topology.Generate(histConfig(s))
	if err != nil {
		return nil, err
	}
	stack := pipeline.Build(w, 7+s)
	schedule := simulate.GenerateSchedule(w, histSchedule(s))
	res, err := simulate.Render(w, schedule, HistStart, HistEnd, simulate.RenderConfig{
		Seed:            43 + 13*s,
		RIBDumpInterval: 60 * 24 * time.Hour,
		SessionResets:   25,
	})
	if err != nil {
		return nil, err
	}
	return &Env{
		Stack:    stack,
		Schedule: schedule,
		Res:      res,
		Start:    HistStart,
		End:      HistEnd,
	}, nil
}
