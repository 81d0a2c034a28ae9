package core

import (
	"net/netip"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/mrt"
)

// binCloseSetup builds an engine over the microWorld whose facility baseline
// holds 400 stable paths from each of near ASes 11, 12
// and 13 toward the colocated far ASes 21..24, and per stable paths from
// near AS 14 toward AS 99, which is not colocated there. It diverts every
// path of 11, 12 and 13 in the bin after the baseline matured and returns
// the record whose arrival closes that bin: the close investigates the
// facility as a PoP-level outage whose verdict does not depend on per.
func binCloseSetup(t *testing.T, per int) (*Engine, *mrt.Record) {
	t.Helper()
	dict, cmap, _ := microWorld(t)
	e := NewEngine(DefaultConfig(), dict, cmap, nil)
	prefix := func(near bgp.ASN, k int) string {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(near) + 20, byte(k >> 8), byte(k), 0}), 24).String()
	}
	far := func(near bgp.ASN, k int) bgp.ASN {
		if near == 14 {
			return 99
		}
		return bgp.ASN(21 + k%4)
	}
	sizes := map[bgp.ASN]int{11: 400, 12: 400, 13: 400, 14: per}
	for _, near := range []bgp.ASN{11, 12, 13, 14} {
		comm := bgp.Communities{bgp.MakeCommunity(uint16(near), 51001)}
		for k := 0; k < sizes[near]; k++ {
			e.Process(mkUpdate(tBase, near, prefix(near, k), bgp.Path{near, far(near, k)}, comm))
		}
	}
	// Two keepalives past the stability window: the bin between them closes
	// with the shard promoting its whole baseline.
	matured := tBase.Add(49 * time.Hour)
	e.Process(mkUpdate(matured, 98, "198.41.0.0/16", bgp.Path{98, 97}, nil))
	e.Process(mkUpdate(matured.Add(time.Minute), 98, "198.41.0.0/16", bgp.Path{98, 97}, nil))

	divertAt := matured.Add(2 * time.Minute)
	for _, near := range []bgp.ASN{11, 12, 13} {
		for k := 0; k < sizes[near]; k++ {
			e.Process(mkUpdate(divertAt, near, prefix(near, k), bgp.Path{near, 98, far(near, k)}, nil))
		}
	}
	return e, mkUpdate(divertAt.Add(time.Minute), 98, "198.41.0.0/16", bgp.Path{98, 97}, nil)
}

// TestBinCloseAllocs pins that a bin close reads the shard's stable
// baseline in place: investigating a PoP whose baseline is 8x larger
// (same ASes, more prefixes) allocates no more than a small constant
// beyond the smaller case. Copying the baseline into a fresh map per bin
// would allocate in proportion to it.
func TestBinCloseAllocs(t *testing.T) {
	const runs = 5
	allocs := func(per int) float64 {
		engines := make([]*Engine, runs+1) // AllocsPerRun warms up once
		closers := make([]*mrt.Record, runs+1)
		for i := range engines {
			engines[i], closers[i] = binCloseSetup(t, per)
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			engines[i].Process(closers[i])
			i++
		})
		for _, e := range engines {
			if incs := e.Incidents(); len(incs) != 1 || incs[0].Kind != IncidentPoP || !incs[0].PoP.IsValid() {
				t.Fatalf("per=%d: incidents %+v, want one located PoP-level incident", per, incs)
			}
		}
		return got
	}
	small, large := allocs(2048), allocs(8*2048)
	t.Logf("bin close allocations: %.0f with 2048 unaffected paths, %.0f with 16384", small, large)
	if large > small+24 {
		t.Errorf("bin close allocates %.0f times over an 8x baseline, %.0f over the 1x one: cost scales with the baseline", large, small)
	}
}
