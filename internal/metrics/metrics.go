// Package metrics holds two things. The runtime telemetry of a running
// daemon: lock-free *Stats collectors (ingest, store, checkpoint, probe,
// service, feed transitions), fixed-bucket duration histograms and the
// staged bin-close and HTTP collectors, each read through a point-in-time
// *Snapshot whose field tags declare its /v1/stats key and /metrics series
// (internal/server serves both). And the statistics and rendering helpers
// the experiment harness uses to regenerate the paper's tables and figures:
// empirical CDFs, time-bucketed series, and fixed-width text tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF over the samples (copied, then sorted).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	pos := q * float64(len(c.sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Points samples the CDF at n evenly spaced sample indices, returning
// (value, cumulative fraction) pairs suitable for plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(1, n-1)
		out = append(out, [2]float64{c.sorted[idx], float64(idx+1) / float64(len(c.sorted))})
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Series is a time-bucketed counter/accumulator.
type Series struct {
	Start  time.Time
	Bucket time.Duration
	Values []float64
}

// NewSeries allocates a series covering [start, end).
func NewSeries(start, end time.Time, bucket time.Duration) *Series {
	n := int(end.Sub(start)/bucket) + 1
	if n < 1 {
		n = 1
	}
	return &Series{Start: start, Bucket: bucket, Values: make([]float64, n)}
}

// Add accumulates v into the bucket containing at (ignored outside range).
func (s *Series) Add(at time.Time, v float64) {
	i := int(at.Sub(s.Start) / s.Bucket)
	if i < 0 || i >= len(s.Values) {
		return
	}
	s.Values[i] += v
}

// Set assigns the bucket containing at.
func (s *Series) Set(at time.Time, v float64) {
	i := int(at.Sub(s.Start) / s.Bucket)
	if i < 0 || i >= len(s.Values) {
		return
	}
	s.Values[i] = v
}

// BucketTime returns the start time of bucket i.
func (s *Series) BucketTime(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Bucket)
}

// Table renders fixed-width text tables (the harness's stand-in for the
// paper's typeset tables).
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatDuration renders a duration in the paper's "minutes" convention.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.0fm", d.Minutes())
}
