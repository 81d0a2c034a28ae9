package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"kepler/internal/mrt"
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
