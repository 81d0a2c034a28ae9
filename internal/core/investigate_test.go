package core

import (
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
)

func TestExclusiveBest(t *testing.T) {
	// Candidate 0: members 1,2,3 (1,2 exclusive; 3 shared).
	// Candidate 1: members 3,4,5 (4,5 exclusive).
	sets := [][]bgp.ASN{{1, 2, 3}, {3, 4, 5}}

	// All of candidate 0's exclusive members affected, none of 1's.
	if got := exclusiveBest([]bgp.ASN{1, 2}, sets); got != 0 {
		t.Errorf("exclusiveBest = %d, want 0", got)
	}
	// Both candidates hot: ambiguous.
	if got := exclusiveBest([]bgp.ASN{1, 2, 4, 5}, sets); got != -1 {
		t.Errorf("both hot: %d, want -1", got)
	}
	// Lukewarm second candidate (1 of 2 exclusive affected = 0.5): ambiguous.
	if got := exclusiveBest([]bgp.ASN{1, 2, 4}, sets); got != -1 {
		t.Errorf("lukewarm: %d, want -1", got)
	}
	// Only the shared member affected: nobody's exclusive set is hot.
	if got := exclusiveBest([]bgp.ASN{3}, sets); got != -1 {
		t.Errorf("shared only: %d, want -1", got)
	}
	// Empty candidate set.
	if got := exclusiveBest([]bgp.ASN{1}, nil); got != -1 {
		t.Errorf("no candidates: %d, want -1", got)
	}
}

func mkGroup(pop colo.PoP, recs []divertRec) *popGroup {
	return buildGroup(pop, []signal{{pop: pop, diverted: recs}})
}

func TestCommonPathASes(t *testing.T) {
	pop := colo.FacilityPoP(1)
	recs := []divertRec{
		{key: PathKey{Peer: 10}, ends: popEnd{near: 11, far: 12}, oldPath: bgp.Path{10, 99, 11, 12}},
		{key: PathKey{Peer: 20}, ends: popEnd{near: 21, far: 22}, oldPath: bgp.Path{20, 99, 21, 22}},
		{key: PathKey{Peer: 30}, ends: popEnd{near: 31, far: 32}, oldPath: bgp.Path{30, 99, 31, 32}},
	}
	g := mkGroup(pop, recs)
	cands := g.commonPathASes()
	if len(cands) == 0 || cands[0] != 99 {
		t.Fatalf("commonPathASes = %v, want [99 ...]", cands)
	}

	// 2 of 3 paths containing the AS is below the 80% majority.
	recs[2].oldPath = bgp.Path{30, 31, 32}
	g = mkGroup(pop, recs)
	for _, c := range g.commonPathASes() {
		if c == 99 {
			t.Error("99 kept despite sub-majority presence")
		}
	}
}

func TestVanishedCommonAS(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	pop := colo.FacilityPoP(1)
	recs := []divertRec{
		{key: PathKey{Peer: 10}, ends: popEnd{near: 11, far: 12}, oldPath: bgp.Path{10, 99, 12}},
		{key: PathKey{Peer: 20}, ends: popEnd{near: 21, far: 22}, oldPath: bgp.Path{20, 99, 22}},
	}
	g := mkGroup(pop, recs)

	// 99 retains plenty of monitored presence: hub alive, not AS-level.
	d.ps.pathsContaining[99] = 50
	if got := d.inv.vanishedCommonAS(g); got != 0 {
		t.Errorf("healthy hub flagged: %v", got)
	}
	// 99's presence collapsed below the diverted count: AS-level.
	d.ps.pathsContaining[99] = 1
	if got := d.inv.vanishedCommonAS(g); got != 99 {
		t.Errorf("vanished AS not flagged: %v", got)
	}
}

// TestProbeCandidatesSpecificity pins how a disambiguation campaign's
// verdict picks the epicenter among its candidates: the most specific
// granularity with exactly one confirmed candidate wins.
func TestProbeCandidatesSpecificity(t *testing.T) {
	confirmed := func(p colo.PoP) ProbeResult { return ProbeResult{Target: p, Confirmed: true, HasData: true} }
	refuted := func(p colo.PoP) ProbeResult { return ProbeResult{Target: p, HasData: true} }
	for _, tc := range []struct {
		name    string
		results []ProbeResult
		want    colo.PoP
	}{
		{"no data", []ProbeResult{{Target: colo.FacilityPoP(1)}}, colo.PoP{}},
		{"unmeasured confirmation ignored", []ProbeResult{{Target: colo.FacilityPoP(1), Confirmed: true}}, colo.PoP{}},
		{"facility beats the IXP containing it",
			[]ProbeResult{confirmed(colo.IXPPoP(2)), confirmed(colo.FacilityPoP(5)), refuted(colo.FacilityPoP(6))},
			colo.FacilityPoP(5)},
		{"two confirmed facilities stay ambiguous",
			[]ProbeResult{confirmed(colo.FacilityPoP(5)), confirmed(colo.FacilityPoP(6))}, colo.PoP{}},
		{"ambiguous facilities do not fall back to the IXP",
			[]ProbeResult{confirmed(colo.IXPPoP(2)), confirmed(colo.FacilityPoP(5)), confirmed(colo.FacilityPoP(6))}, colo.PoP{}},
		{"only the IXP confirms", []ProbeResult{confirmed(colo.IXPPoP(2)), refuted(colo.FacilityPoP(7))}, colo.IXPPoP(2)},
		{"IXP beats the city", []ProbeResult{confirmed(colo.CityPoP(3)), confirmed(colo.IXPPoP(2))}, colo.IXPPoP(2)},
		{"only the city confirms", []ProbeResult{confirmed(colo.CityPoP(3)), refuted(colo.IXPPoP(2))}, colo.CityPoP(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := selectConfirmed(ProbeVerdict{ID: 1, Results: tc.results}); got != tc.want {
				t.Errorf("selectConfirmed = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPerASGroupingAblation(t *testing.T) {
	// A big AS (90 stable paths, unaffected) masks a regional AS's
	// complete divergence (10 paths) at the same PoP: per-AS grouping
	// signals, aggregate-only does not — the paper's Section 4.2 bias.
	run := func(disable bool) int {
		dict, cmap, _ := microWorld(t)
		cfg := DefaultConfig()
		cfg.DisablePerASGrouping = disable
		d := New(cfg, dict, cmap, nil)

		at := tBase
		announce := func(near bgp.ASN, n int, tagged bool, via bgp.ASN) {
			for k := 0; k < n; k++ {
				prefix := prefixFor(int(near)*1000 + k)
				var comms bgp.Communities
				if tagged {
					comms = bgp.Communities{bgp.MakeCommunity(uint16(near), 51001)}
				}
				d.Process(mkUpdate(at, near, prefix, bgp.Path{near, via}, comms))
			}
		}
		announce(11, 300, true, 21) // the big AS: 300 of 330 stable paths
		announce(12, 10, true, 22)  // the regional ASes: 10 each
		announce(13, 10, true, 23)
		announce(14, 10, true, 24)

		// Mature the baseline.
		d.Process(mkUpdate(tBase.Add(49*time.Hour), 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))

		// Regional ASes 12-14 fully divert; the big AS is untouched.
		at = tBase.Add(50 * time.Hour)
		for _, near := range []bgp.ASN{12, 13, 14} {
			for k := 0; k < 10; k++ {
				prefix := prefixFor(int(near)*1000 + k)
				d.Process(mkUpdate(at, near, prefix, bgp.Path{near, 99, bgp.ASN(int(near) + 10)}, nil))
			}
		}
		d.Process(mkUpdate(at.Add(2*time.Minute), 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))

		pop := 0
		for _, inc := range d.Incidents() {
			if inc.Kind == IncidentPoP {
				pop++
			}
		}
		return pop
	}

	grouped := run(false)
	aggregate := run(true)
	if grouped == 0 {
		t.Fatal("per-AS grouping missed the partial outage")
	}
	if aggregate != 0 {
		t.Fatalf("aggregate-only unexpectedly signalled (%d): the 30/120 fraction is above threshold?", aggregate)
	}
}

func prefixFor(i int) string {
	return bgp.Path{}.String() + prefixString(i)
}

func prefixString(i int) string {
	a := byte(20 + (i>>16)&0x3f)
	b := byte(i >> 8)
	c := byte(i)
	return netipString(a, b, c)
}

func netipString(a, b, c byte) string {
	return itoa(a) + "." + itoa(b) + "." + itoa(c) + ".0/24"
}

func itoa(b byte) string {
	if b == 0 {
		return "0"
	}
	var buf [3]byte
	i := 3
	for b > 0 {
		i--
		buf[i] = '0' + b%10
		b /= 10
	}
	return string(buf[i:])
}
