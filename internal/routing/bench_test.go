package routing

import (
	"testing"

	"kepler/internal/colo"
	"kepler/internal/topology"
)

// BenchmarkComputeOrigin computes one origin's table per op, cycling over
// every AS of the seed-1 default world, with nothing failed and with the
// most populated facility failed.
func BenchmarkComputeOrigin(b *testing.B) {
	cfg := topology.DefaultConfig()
	cfg.Seed = 1
	w, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var target colo.FacilityID
	best := 0
	for _, f := range w.Map.Facilities() {
		if len(f.Members) > best {
			best, target = len(f.Members), f.ID
		}
	}
	failed := NewMask()
	failed.FailFacility(target)
	e := New(w)
	for _, c := range []struct {
		name string
		mask *Mask
	}{{"empty", NewMask()}, {"facility", failed}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.ComputeOrigin(w.ASes[i%len(w.ASes)].ASN, c.mask)
			}
		})
	}
}
