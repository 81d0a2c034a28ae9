package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"testing"
)

// TestGoldenScenarioTraces pins the provenance trace of goldenStream's
// facility outage byte for byte: the SHA-256 of the JSON of every
// OutageTrace recorded through Hooks.TraceRecorded. Its disambiguation
// walk eliminates a far-end candidate facility and chooses by
// partial-outage consistency, two steps the canonical world's traces
// (experiments.TestGoldenTraces) never reach.
func TestGoldenScenarioTraces(t *testing.T) {
	recs, _ := goldenStream()
	dict, cmap, _ := microWorld(t)
	cfg := DefaultConfig()
	cfg.Tracing = true
	d := New(cfg, dict, cmap, nil)
	h := sha256.New()
	enc := json.NewEncoder(h)
	var stages []string
	d.SetHooks(Hooks{TraceRecorded: func(tr OutageTrace) {
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
		for _, ch := range tr.Chapters {
			for _, s := range ch.Steps {
				stages = append(stages, s.Stage)
			}
		}
	}})
	for _, r := range recs {
		d.Process(r)
	}
	d.Flush(recs[len(recs)-1].Time)
	if want := []string{"classify", "near-facility-margin", "far-facility-candidates", "partial-consistency"}; !slices.Equal(stages, want) {
		t.Fatalf("trace steps %v, want %v", stages, want)
	}
	const want = "76323791672f6864cb4f68d260d2cdbf6d29aa55fa3dd866de9246d6a8efb2fa"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("scenario traces sha256 = %s, want %s", got, want)
	}
}
