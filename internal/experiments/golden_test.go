package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"testing"

	"kepler/internal/core"
	"kepler/internal/mrt"
	"kepler/internal/probe"
)

// TestGoldenHistoricalArchive pins the SHA-256 of Historical()'s rendered
// archive (world seed 2012, schedule seed 41, render seed 43). Every shape
// test in this package reads that archive, so a renderer change that moves
// these bytes moves every figure.
func TestGoldenHistoricalArchive(t *testing.T) {
	env := histEnvT(t)
	h := sha256.New()
	if err := mrt.WriteAll(h, env.Res.Records); err != nil {
		t.Fatal(err)
	}
	const want = "2382e5b656b205f0f5e27ac7a7c63ca1a0179e269276c4fad2dbbdc1768d2cd5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("historical archive sha256 = %s (%d records), want %s", got, len(env.Res.Records), want)
	}
}

// TestGoldenTraces pins the provenance traces (Config.Tracing) of
// Historical()'s world byte for byte: the SHA-256 of the JSON of every
// OutageTrace recorded through Hooks.TraceRecorded, in recording order,
// under the paper configuration (SimDataPlane behind a probe scheduler) and
// the shipped one (no data plane, ReportUnresolved on). A change to
// classification, disambiguation or trace recording that moves a single
// byte of served evidence fails here. Run with -v to list the stage ×
// outcome templates the traces cover.
func TestGoldenTraces(t *testing.T) {
	env := histEnvT(t)
	covered := map[string]int{}
	for _, c := range []struct {
		name             string
		dp, unresolved   bool
		traces, chapters int
		want             string
	}{
		{"paper", true, false, 37, 60, "3e04d2b77d9f83edc1b020f241d51dd49522fd86d99a7fa8dd43917bcbb91352"},
		{"shipped", false, true, 54, 78, "ba1a476fbdb9b635bd9157cc848f6756c1e3a69731255ed748326ccb504b3757"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Tracing = true
			cfg.ReportUnresolved = c.unresolved
			eng := env.Stack.NewDetector(cfg)
			if c.dp {
				sched := probe.NewScheduler(env.Stack.NewSimDataPlane(env.Res), probe.Config{})
				defer sched.Close()
				eng.SetProber(sched)
			}
			h := sha256.New()
			enc := json.NewEncoder(h)
			traces, chapters := 0, 0
			eng.SetHooks(core.Hooks{TraceRecorded: func(tr core.OutageTrace) {
				if err := enc.Encode(tr); err != nil {
					t.Fatal(err)
				}
				traces++
				for _, ch := range tr.Chapters {
					chapters++
					for _, s := range ch.Steps {
						covered[stepTemplate(s)]++
					}
				}
			}})
			recs := env.Res.Records
			for _, rec := range recs {
				eng.Process(rec)
			}
			eng.Flush(recs[len(recs)-1].Time)
			got := hex.EncodeToString(h.Sum(nil))
			if got != c.want || traces != c.traces || chapters != c.chapters {
				t.Fatalf("%s traces sha256 = %s (%d traces, %d chapters), want %s (%d, %d)",
					c.name, got, traces, chapters, c.want, c.traces, c.chapters)
			}
		})
	}
	keys := make([]string, 0, len(covered))
	for k := range covered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Logf("covered %4d× %s", covered[k], k)
	}
}

var digits = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)

// stepTemplate names a trace step by its stage, whether it chose, and its
// outcome with every number replaced by N: one name per recording site.
func stepTemplate(s core.TraceStep) string {
	chose := "-"
	if s.Chosen.IsValid() {
		chose = fmt.Sprintf("chose %s", s.Chosen.Kind)
	}
	return fmt.Sprintf("%s [%s] %s", s.Stage, chose, digits.ReplaceAllString(s.Outcome, "N"))
}
