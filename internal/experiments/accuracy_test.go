package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"kepler/internal/core"
)

var updateAccuracy = flag.Bool("update", false, "rewrite ACCURACY.json from the current detector")

// accuracyFile is the committed scoreboard, at the repository root.
const accuracyFile = "../../ACCURACY.json"

// accuracySeeds are the seed offsets of renderHistorical that the
// scoreboard covers; 0 is the canonical world.
const accuracySeeds = 5

// accuracyRow is one scoreboard line: Validation's accounting of one
// detection configuration over one world. Ratios are rounded to three
// decimals so the file never differs on float noise.
type accuracyRow struct {
	Seed          int64   `json:"seed"`
	Config        string  `json:"config"`
	Detected      int     `json:"detected"`
	TP            int     `json:"tp"`
	FP            int     `json:"fp"`
	FN            int     `json:"fn"`
	PartialMissed int     `json:"partial_missed"`
	FullTrackable int     `json:"full_trackable"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	LocatedPoP    int     `json:"located_pop"`
	LocatedCity   int     `json:"located_city"`
	LocatedRel    int     `json:"located_related"`
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// accuracyConfigs are the scored detection configurations, in file order.
var accuracyConfigs = []struct {
	name string
	run  func(env *Env) []core.Outage
}{
	{"paper", func(env *Env) []core.Outage {
		outs, _ := env.Stack.Run(env.Res.Records, core.DefaultConfig(), env.Stack.NewSimDataPlane(env.Res))
		return outs
	}},
	{"no-dp", func(env *Env) []core.Outage {
		outs, _ := env.Stack.Run(env.Res.Records, core.DefaultConfig(), nil)
		return outs
	}},
	{"shipped", func(env *Env) []core.Outage {
		cfg := core.DefaultConfig()
		cfg.ReportUnresolved = true
		outs, _ := env.Stack.Run(env.Res.Records, cfg, nil)
		return outs
	}},
}

// scoreSeed renders the world at seed offset s and scores every
// configuration over it.
func scoreSeed(t *testing.T, s int64) []accuracyRow {
	var env *Env
	var err error
	if s == 0 {
		env, err = Historical()
	} else {
		env, err = renderHistorical(s)
	}
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]accuracyRow, 0, len(accuracyConfigs))
	for _, c := range accuracyConfigs {
		scored := *env
		scored.Outages = c.run(env)
		r := Validation(&scored)
		rows = append(rows, accuracyRow{
			Seed: s, Config: c.name,
			Detected: r.Detected, TP: r.TruePositives, FP: r.FalsePositives, FN: r.FalseNegatives,
			PartialMissed: r.PartialMissed, FullTrackable: r.FullTrackable,
			Precision: round3(r.Precision()), Recall: round3(r.Recall()),
			LocatedPoP: r.LocatedPoP, LocatedCity: r.LocatedCity, LocatedRel: r.LocatedRelated,
		})
	}
	return rows
}

// encodeAccuracy writes one row per line, so a detection change shows as
// the rows it moved.
func encodeAccuracy(rows []accuracyRow) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		line, _ := json.Marshal(r)
		b.WriteString("  ")
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestAccuracy is the accuracy scoreboard: Section 5.3's accounting of
// every configuration over the five seed worlds, recomputed and compared
// against the committed ACCURACY.json. Any detection change that moves a
// count fails here until the file is rewritten with -update, so the
// change's accuracy diff is part of its review. Under the race detector
// only the canonical world is scored.
func TestAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("seed worlds skipped in -short mode")
	}
	seeds := accuracySeeds
	if raceEnabled {
		if *updateAccuracy {
			t.Fatal("-update scores every seed: run it without -race")
		}
		seeds = 1
	}
	perSeed := make([][]accuracyRow, seeds)
	t.Run("seeds", func(t *testing.T) {
		for s := range perSeed {
			t.Run(fmt.Sprintf("s=%d", s), func(t *testing.T) {
				t.Parallel()
				perSeed[s] = scoreSeed(t, int64(s))
			})
		}
	})
	if t.Failed() {
		return
	}
	var got []accuracyRow
	for _, rows := range perSeed {
		got = append(got, rows...)
	}
	if *updateAccuracy {
		if err := os.WriteFile(accuracyFile, encodeAccuracy(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(accuracyFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestAccuracy ./internal/experiments -update)", err)
	}
	var want []accuracyRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		kept := want[:0]
		for _, r := range want {
			if r.Seed < int64(seeds) {
				kept = append(kept, r)
			}
		}
		want = kept
	}
	if !bytes.Equal(encodeAccuracy(got), encodeAccuracy(want)) {
		t.Errorf("accuracy scoreboard moved; review the diff and rerun with -update:\ngot:\n%s\nwant:\n%s",
			encodeAccuracy(got), encodeAccuracy(want))
	}
}
