package experiments

import (
	"fmt"
	"strings"
	"time"

	"kepler/internal/colo"
	"kepler/internal/reports"
)

// Figure1Result reproduces Figure 1: detected and publicly reported
// infrastructure outages per semester.
type Figure1Result struct {
	Semesters  []string
	Facilities []int
	IXPs       []int
	Reported   []int
}

// reportsSeed fixes the mailing-list sampling for the whole harness.
const reportsSeed = 99

// semesterIndex maps a time to its half-year bucket since HistStart.
func semesterIndex(start, at time.Time) int {
	months := (at.Year()-start.Year())*12 + int(at.Month()-start.Month())
	return months / 6
}

func semesterLabel(start time.Time, idx int) string {
	y := start.Year() + (idx / 2)
	half := "06"
	if idx%2 == 1 {
		half = "12"
	}
	return fmt.Sprintf("%d/%s", y, half)
}

// Figure1 computes the detected-vs-reported timeline over the historical
// environment.
func Figure1(env *Env) *Figure1Result {
	n := semesterIndex(env.Start, env.End.Add(-time.Second)) + 1
	r := &Figure1Result{
		Semesters:  make([]string, n),
		Facilities: make([]int, n),
		IXPs:       make([]int, n),
		Reported:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		r.Semesters[i] = semesterLabel(env.Start, i)
	}
	for _, o := range env.Outages {
		idx := semesterIndex(env.Start, o.Start)
		if idx < 0 || idx >= n {
			continue
		}
		switch o.PoP.Kind {
		case colo.PoPIXP:
			r.IXPs[idx]++
		default:
			// Facility- and city-level detections count as facility
			// outages: city abstraction means several buildings failed.
			r.Facilities[idx]++
		}
	}
	for _, rep := range reports.Sample(env.Res.Truth, reportsSeed) {
		idx := semesterIndex(env.Start, rep.Time)
		if idx >= 0 && idx < n {
			r.Reported[idx]++
		}
	}
	return r
}

// TotalDetected returns the total number of detected outages.
func (r *Figure1Result) TotalDetected() int {
	sum := 0
	for i := range r.Facilities {
		sum += r.Facilities[i] + r.IXPs[i]
	}
	return sum
}

// TotalReported returns the total number of publicly reported outages.
func (r *Figure1Result) TotalReported() int {
	sum := 0
	for _, v := range r.Reported {
		sum += v
	}
	return sum
}

// Render prints the per-semester rows.
func (r *Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: detected and reported infrastructure outages per semester\n")
	fmt.Fprintf(&b, "%-10s %10s %6s %9s\n", "semester", "facilities", "ixps", "reported")
	for i := range r.Semesters {
		fmt.Fprintf(&b, "%-10s %10d %6d %9d\n", r.Semesters[i], r.Facilities[i], r.IXPs[i], r.Reported[i])
	}
	ratio := float64(r.TotalDetected()) / float64(maxInt(1, r.TotalReported()))
	fmt.Fprintf(&b, "total detected=%d reported=%d ratio=%.1fx (paper: 159 vs ~40, 4x)\n",
		r.TotalDetected(), r.TotalReported(), ratio)
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
