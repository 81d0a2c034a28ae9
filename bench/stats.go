package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quantile returns the q-quantile (nearest rank) of xs, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailQuantile picks the highest of p90/p99/p99.9 that still has at least
// ten samples beyond it — the percentile the sample supports — and returns
// it with its label ("p99"). With fewer than 100 samples it falls back to
// the maximum, labelled "max".
func tailQuantile(xs []float64) (string, float64) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(xs))*(1-c.q) >= 10 {
			return c.label, quantile(xs, c.q)
		}
	}
	_, hi := minMax(xs)
	return "max", hi
}

// durations converts to float64 in the given unit (time.Millisecond, ...).
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
