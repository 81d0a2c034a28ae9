package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// runAA runs the untraced suite twice over the same code and seed,
// interleaving the workloads (A1 B1 C1 A2 B2 C2) so slow drift of the box
// lands on both rounds alike, and prints for every gated metric how far
// the two rounds disagree against the metric's bound, with the per-pass
// spread behind each round. The exact counts must repeat exactly. This is
// the protocol the bounds in BENCHMARK.json were sized with.
func (h *harness) runAA(run []workload) bool {
	rounds := [2]map[string]*e2eResult{{}, {}}
	for r := range rounds {
		for _, wl := range run {
			res, err := h.runE2E(wl)
			if err != nil {
				h.procs.killAll()
				fmt.Fprintf(os.Stderr, "keplerbench: -aa round %d %s: %v\n", r+1, wl.Name, err)
				return false
			}
			rounds[r][wl.Name] = res
			for _, e := range res.Errors {
				fmt.Printf("FAIL  round %d %-14s %s\n", r+1, wl.Name, e)
			}
		}
	}
	ok := true
	fmt.Printf("%-14s %-24s %12s %12s %8s %6s  %s\n", "workload", "metric", "round 1", "round 2", "|d|/med", "bound", "per-pass min/median/max (round 1 | round 2)")
	for _, wl := range run {
		a, b := rounds[0][wl.Name], rounds[1][wl.Name]
		if a.Failed+b.Failed > 0 {
			ok = false
		}
		for i, m := range endToEnd {
			va, vb := a.Metrics[i].Value, b.Metrics[i].Value
			delta := math.Abs(va-vb) / ((va + vb) / 2)
			verdict := ""
			if delta > m.Bound {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-14s %-24s %12.4f %12.4f %7.2f%% %5.0f%%  %s | %s%s\n", wl.Name, m.Name, va, vb,
				100*delta, 100*m.Bound, spread(a.Samples[m.Name]), spread(b.Samples[m.Name]), verdict)
		}
		var names []string
		for name := range a.Counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if a.Counts[name] != b.Counts[name] {
				ok = false
				fmt.Printf("%-14s %-24s %12d %12d  COUNT DID NOT REPEAT\n", wl.Name, name, a.Counts[name], b.Counts[name])
			}
		}
		fmt.Printf("%-14s %d exact counts repeated\n", wl.Name, len(names))
	}
	return ok
}

func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	lo, hi := minMax(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g n=%d", lo, median(xs), hi, len(xs))
}
