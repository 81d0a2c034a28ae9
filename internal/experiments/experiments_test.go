package experiments

import (
	"strings"
	"testing"

	"kepler/internal/colo"
	"kepler/internal/geo"
)

// The experiment tests assert the paper's qualitative shapes, not absolute
// numbers. They share the cached environments, so the
// expensive scenario renders run once per test binary.

func histEnvT(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("historical environment skipped in -short mode")
	}
	env, err := Historical()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func amsCaseT(t *testing.T) *CaseStudy {
	t.Helper()
	if testing.Short() {
		t.Skip("case study skipped in -short mode")
	}
	cs, err := AMSIXCase()
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func lonCaseT(t *testing.T) *CaseStudy {
	t.Helper()
	if testing.Short() {
		t.Skip("case study skipped in -short mode")
	}
	cs, err := LondonCase()
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestFigure1Shape(t *testing.T) {
	env := histEnvT(t)
	r := Figure1(env)
	if r.TotalDetected() == 0 {
		t.Fatal("nothing detected")
	}
	// Paper shape 1: detected clearly exceeds reported. The paper measures
	// 4x; our smaller world with fewer trackable targets yields ~2x, and
	// the qualitative claim — public channels miss
	// most infrastructure outages — must hold.
	ratio := float64(r.TotalDetected()) / float64(maxInt(1, r.TotalReported()))
	if ratio < 1.5 {
		t.Errorf("detected/reported ratio %.1f, want >= 1.5 (paper: 4x)", ratio)
	}
	// Paper shape 2: facility outages outnumber IXP outages overall.
	fac, ixp := 0, 0
	for i := range r.Facilities {
		fac += r.Facilities[i]
		ixp += r.IXPs[i]
	}
	if fac <= ixp {
		t.Errorf("facility outages (%d) should outnumber IXP outages (%d)", fac, ixp)
	}
	// Outages occur throughout the window, not in one burst.
	nonZero := 0
	for i := range r.Semesters {
		if r.Facilities[i]+r.IXPs[i] > 0 {
			nonZero++
		}
	}
	if nonZero < len(r.Semesters)/2 {
		t.Errorf("outages concentrated in %d/%d semesters", nonZero, len(r.Semesters))
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFigure3Shape(t *testing.T) {
	env := histEnvT(t)
	r := Figure3(env)
	if len(r.Years) != 6 {
		t.Fatalf("years = %d", len(r.Years))
	}
	// Monotone growth in both series; values grow faster than operators.
	for i := 1; i < len(r.Years); i++ {
		if r.Unique[i] < r.Unique[i-1] {
			t.Errorf("unique values shrank in %d", r.Years[i])
		}
		if r.UniqueTop[i] < r.UniqueTop[i-1] {
			t.Errorf("unique operators shrank in %d", r.Years[i])
		}
	}
	vGrowth := float64(r.Unique[5]) / float64(maxInt(1, r.Unique[0]))
	aGrowth := float64(r.UniqueTop[5]) / float64(maxInt(1, r.UniqueTop[0]))
	if vGrowth <= aGrowth {
		t.Errorf("value growth (%.2fx) should outpace operator growth (%.2fx)", vGrowth, aGrowth)
	}
	if vGrowth < 1.8 {
		t.Errorf("value growth %.2fx too small (paper: ~3x)", vGrowth)
	}
}

func TestFigure5Shape(t *testing.T) {
	env := histEnvT(t)
	r := Figure5(env)
	total := func(m map[geo.Continent]int) int {
		s := 0
		for _, v := range m {
			s += v
		}
		return s
	}
	if total(r.Facilities) == 0 || total(r.Cities) == 0 {
		t.Fatal("no trackable infrastructure")
	}
	// Europe+NA dominate, as in the paper.
	euNA := r.Facilities[geo.Europe] + r.Facilities[geo.NorthAmerica] +
		r.Cities[geo.Europe] + r.Cities[geo.NorthAmerica]
	all := total(r.Facilities) + total(r.Cities) + total(r.IXPs)
	if float64(euNA)/float64(all) < 0.5 {
		t.Errorf("Europe+NA fraction %.2f too small", float64(euNA)/float64(all))
	}
}

func TestTable1Shape(t *testing.T) {
	env := histEnvT(t)
	r := Table1(env)
	all, over5, trackable := r.Totals()
	if !(all >= over5 && over5 >= trackable) {
		t.Errorf("column ordering violated: %d %d %d", all, over5, trackable)
	}
	if trackable == 0 {
		t.Fatal("no trackable facilities")
	}
	if r.All[geo.Europe] < r.All[geo.Africa] {
		t.Error("Europe should have more facilities than Africa")
	}
	out := r.Render()
	if !strings.Contains(out, "TOTAL") {
		t.Error("render missing totals row")
	}
}

func TestFigure7aShape(t *testing.T) {
	env := histEnvT(t)
	r := Figure7a(env)
	n := len(r.Thresholds)
	// Link- and AS-level counts grow (weakly) as the threshold drops.
	if r.LinkLevel[0] < r.LinkLevel[n-1] {
		t.Errorf("link-level signals should grow at low thresholds: %v", r.LinkLevel)
	}
	// PoP-level: roughly stable in the 2–15% plateau, then declining.
	plateauMin, plateauMax := r.PoPLevel[0], r.PoPLevel[0]
	for i, th := range r.Thresholds {
		if th <= 0.15 {
			if r.PoPLevel[i] < plateauMin {
				plateauMin = r.PoPLevel[i]
			}
			if r.PoPLevel[i] > plateauMax {
				plateauMax = r.PoPLevel[i]
			}
		}
	}
	if plateauMin == 0 {
		t.Fatalf("no PoP-level signals on the plateau: %v", r.PoPLevel)
	}
	if float64(plateauMax-plateauMin) > 0.5*float64(plateauMax) {
		t.Errorf("plateau not stable: %v", r.PoPLevel)
	}
	if r.PoPLevel[n-1] > plateauMax {
		t.Errorf("PoP-level signals should not grow at 50%% threshold: %v", r.PoPLevel)
	}
}

func TestFigure7bShape(t *testing.T) {
	env := histEnvT(t)
	r := Figure7b(env)
	total, over5, trackable := r.Counts()
	if total == 0 || trackable == 0 {
		t.Fatal("empty scatter")
	}
	if over5 > total || trackable > over5 {
		t.Errorf("count ordering violated: %d %d %d", total, over5, trackable)
	}
	for _, p := range r.Facilities {
		if p.Mapped > p.Members {
			t.Fatalf("mapped members exceed members at facility %d", p.Facility)
		}
		if p.Trackable && p.Mapped < colo.MinTrackableMembers {
			t.Fatalf("trackable facility %d with %d mapped members", p.Facility, p.Mapped)
		}
	}
}

func TestFigure7cShape(t *testing.T) {
	env := histEnvT(t)
	r := Figure7c(env)
	if len(r.Months) == 0 {
		t.Fatal("no months")
	}
	for i := range r.Months {
		// Paper: ~50% IPv4, ~30% IPv6; shape: v4 coverage clearly exceeds v6.
		if r.IPv4[i] < r.IPv6[i]+0.02 {
			t.Errorf("month %s: IPv4 coverage %.2f not above IPv6 %.2f", r.Months[i], r.IPv4[i], r.IPv6[i])
		}
		if r.IPv4[i] < 0.25 || r.IPv4[i] > 0.85 {
			t.Errorf("month %s: IPv4 coverage %.2f implausible (paper: ~0.5)", r.Months[i], r.IPv4[i])
		}
	}
}

func TestFigure8aShape(t *testing.T) {
	env := histEnvT(t)
	r := Figure8a(env)
	if len(r.GroundTruthASes) == 0 || r.LinksTotal == 0 {
		t.Fatal("no ground truth")
	}
	if r.MissedFraction() > 0.10 {
		t.Errorf("missed fraction %.2f too high (paper: <5%%)", r.MissedFraction())
	}
	// Most AS links involve a single location (paper: large fraction of
	// single-location pairs).
	single := r.TruthCounts[1]
	multi := 0
	for n, c := range r.TruthCounts {
		if n > 1 {
			multi += c
		}
	}
	if single == 0 {
		t.Error("no single-location links")
	}
	_ = multi
}

func TestFigure8bShape(t *testing.T) {
	env := histEnvT(t)
	r := Figure8b(env)
	if len(r.FacilityMinutes) == 0 || len(r.IXPMinutes) == 0 {
		t.Fatal("missing duration samples")
	}
	for _, m := range append(append([]float64{}, r.FacilityMinutes...), r.IXPMinutes...) {
		if m < 0 || m > 72*60 {
			t.Errorf("implausible duration %f minutes", m)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "facility") {
		t.Error("render incomplete")
	}
}

func TestFigure8cShape(t *testing.T) {
	cs := amsCaseT(t)
	r := Figure8c(cs)
	if len(r.Times) == 0 {
		t.Fatal("empty series")
	}
	// The IXP granularity shows the deepest peak change fraction.
	peakFac, peakIXP, peakCity := 0.0, 0.0, 0.0
	for i := range r.Times {
		if r.Facility[i] > peakFac {
			peakFac = r.Facility[i]
		}
		if r.IXP[i] > peakIXP {
			peakIXP = r.IXP[i]
		}
		if r.City[i] > peakCity {
			peakCity = r.City[i]
		}
	}
	if peakIXP < 0.5 {
		t.Errorf("IXP peak %.2f too shallow for a full fabric outage", peakIXP)
	}
	if peakIXP < peakFac {
		t.Errorf("IXP peak %.2f should exceed facility peak %.2f", peakIXP, peakFac)
	}
	if peakIXP < peakCity {
		t.Errorf("IXP peak %.2f should exceed city peak %.2f", peakIXP, peakCity)
	}
}

func TestFigure9Shapes(t *testing.T) {
	cs := lonCaseT(t)
	a := Figure9a(cs)
	if len(a.Times) == 0 {
		t.Fatal("empty 9a series")
	}
	// Event C (facility 2) must move the facility series.
	peakFac := 0.0
	for _, v := range a.Facility {
		if v > peakFac {
			peakFac = v
		}
	}
	if peakFac < 0.3 {
		t.Errorf("facility-2 peak %.2f too shallow", peakFac)
	}

	b := Figure9b(cs)
	if len(b.Facilities) < 2 {
		t.Fatal("9b needs at least two facilities")
	}

	c := Figure9c(cs)
	if len(c.DistancesKm) == 0 {
		t.Fatal("no affected link ends")
	}
	if c.LocalFrac <= 0.05 || c.LocalFrac >= 0.995 {
		t.Errorf("local fraction %.2f implausible (paper: 0.44)", c.LocalFrac)
	}
	// Some impact must be genuinely remote (>500 km).
	remote := 0
	for _, d := range c.DistancesKm {
		if d > 500 {
			remote++
		}
	}
	if remote == 0 {
		t.Error("no remote impact found (paper: >45% in another country)")
	}
}

func TestFigure10Shapes(t *testing.T) {
	cs := amsCaseT(t)

	a := Figure10a(cs)
	peak := 0.0
	for _, v := range a.Away {
		if v > peak {
			peak = v
		}
	}
	if peak < 0.5 {
		t.Errorf("10a peak %.2f too shallow", peak)
	}
	res := a.NeverReturned()
	if res <= 0 || res > 0.2 {
		t.Errorf("never-returned fraction %.3f outside (0, 0.2] (paper: ~5%%)", res)
	}
	if res >= peak {
		t.Error("paths did not recover at all")
	}

	b := Figure10b(cs)
	if len(b.Times) == 0 {
		t.Fatal("no 10b campaigns")
	}
	peakB, last := 0.0, b.Away[len(b.Away)-1]
	for _, v := range b.Away {
		if v > peakB {
			peakB = v
		}
	}
	if peakB < 0.5 {
		t.Errorf("10b peak %.2f too shallow", peakB)
	}
	if last >= peakB {
		t.Error("data plane did not recover")
	}

	c := Figure10c(cs)
	if len(c.BeforeMs) == 0 || len(c.DuringRerouteMs) == 0 {
		t.Fatalf("10c sets empty: before=%d rerouted=%d", len(c.BeforeMs), len(c.DuringRerouteMs))
	}
	medBefore := median(c.BeforeMs)
	medReroute := median(c.DuringRerouteMs)
	if medReroute <= medBefore {
		t.Errorf("rerouted median RTT %.1f not above baseline %.1f", medReroute, medBefore)
	}
	if len(c.AfterMs) > 0 {
		medAfter := median(c.AfterMs)
		if medAfter > medReroute {
			t.Errorf("post-restore median %.1f above outage median %.1f", medAfter, medReroute)
		}
	}

	d := Figure10d(cs)
	if d.RemoteIXP == 0 {
		t.Skip("no second IXP with traffic")
	}
	if d.BaselineGbps <= 0 {
		t.Fatal("no baseline traffic")
	}
	if d.DropGbps <= 0 {
		t.Errorf("no remote traffic drop (paper: ~10%% at EU-IXP)")
	}
	if d.DropGbps > 0.9*d.BaselineGbps {
		t.Errorf("remote drop %.1f implausibly large vs baseline %.1f", d.DropGbps, d.BaselineGbps)
	}
}

func TestValidationShape(t *testing.T) {
	env := histEnvT(t)
	r := Validation(env)
	if r.TruePositives == 0 {
		t.Fatal("no true positives")
	}
	// Precision must be high; the paper's FPs were co-located fiber cuts.
	precision := float64(r.TruePositives) / float64(maxInt(1, r.Detected))
	if precision < 0.85 {
		t.Errorf("precision %.2f too low", precision)
	}
	// The paper misses no full outages at trackable facilities; our misses
	// concentrate on weakly observed peripheral infrastructure and must
	// stay a clear minority.
	if r.FalseNegatives*2 > r.TruePositives {
		t.Errorf("false negatives %d too high vs TPs %d", r.FalseNegatives, r.TruePositives)
	}
}

func TestSummaryShape(t *testing.T) {
	env := histEnvT(t)
	r := Summary(env)
	if r.Total == 0 {
		t.Fatal("no outages")
	}
	if r.MedianDuration <= 0 {
		t.Error("zero median duration")
	}
	// Shape: a substantial fraction exceeds one hour (paper: 40%).
	if r.OverOneHour < 0.1 || r.OverOneHour > 0.9 {
		t.Errorf("over-1h fraction %.2f implausible", r.OverOneHour)
	}
	// Shape: IXP outages last longer than facility outages.
	if r.IXPMedian < r.FacMedian {
		t.Errorf("IXP median %v below facility median %v", r.IXPMedian, r.FacMedian)
	}
	// Shape: Europe leads the regional split.
	if r.EuropeFrac <= r.USFrac {
		t.Errorf("Europe fraction %.2f should exceed US %.2f", r.EuropeFrac, r.USFrac)
	}
}

func TestDictionaryStatsShape(t *testing.T) {
	env := histEnvT(t)
	r := DictionaryStats(env)
	if r.Stats.Communities == 0 || r.Stats.ASNs == 0 {
		t.Fatal("empty dictionary stats")
	}
	// City granularity dominates (Section 3.3: "the majority of the
	// communities annotate routes at city-level granularity").
	if r.Stats.ByGranularity[colo.PoPCity] <= r.Stats.ByGranularity[colo.PoPFacility]/2 {
		t.Errorf("granularity mix off: %v", r.Stats.ByGranularity)
	}
	// Attrition: meanings are stable (paper: 1.5% changed).
	if r.Diff.Common > 0 {
		changed := float64(r.Diff.ChangedMeaning) / float64(r.Diff.Common)
		if changed > 0.25 {
			t.Errorf("changed-meaning fraction %.2f too high", changed)
		}
	}
	// Europe leads the continental spread.
	if r.Stats.ByContinent[geo.Europe] <= r.Stats.ByContinent[geo.Africa] {
		t.Error("continental skew missing")
	}
}

func TestAllRendersNonEmpty(t *testing.T) {
	env := histEnvT(t)
	renders := []interface{ Render() string }{
		Figure1(env), Figure3(env), Figure5(env), Table1(env),
		Figure7b(env), Figure7c(env), Figure8a(env), Figure8b(env),
		Validation(env), Summary(env), DictionaryStats(env),
	}
	for i, r := range renders {
		out := r.Render()
		if len(out) < 40 {
			t.Errorf("render %d suspiciously short: %q", i, out)
		}
		if strings.Contains(out, "%!") {
			t.Errorf("render %d has formatting errors: %q", i, out)
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64{}, xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}
