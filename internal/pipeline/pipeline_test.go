package pipeline

import (
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

var (
	tStart = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	tEnd   = time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC)
)

func buildStack(t *testing.T) *Stack {
	t.Helper()
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Build(w, 77)
}

// bestTarget picks the facility with the most dictionary-covered members —
// the most trackable facility.
func bestTarget(s *Stack) colo.FacilityID {
	var best colo.FacilityID
	bestN := 0
	for _, f := range s.Map.Facilities() {
		_, n := s.Map.Trackable(f.ID, s.Dict.Covers)
		if n > bestN {
			best, bestN = f.ID, n
		}
	}
	return best
}

func TestStackBuild(t *testing.T) {
	s := buildStack(t)
	if s.Dict.Len() == 0 {
		t.Fatal("empty dictionary")
	}
	if s.Map.NumFacilities() != s.World.Map.NumFacilities() {
		t.Fatalf("facility count drifted: %d vs %d", s.Map.NumFacilities(), s.World.Map.NumFacilities())
	}
	// Facility IDs must align between the ground-truth and noisy maps
	// (same address key order).
	for _, f := range s.World.Map.Facilities() {
		nf, ok := s.Map.Facility(f.ID)
		if !ok || nf.Addr.Key() != f.Addr.Key() {
			t.Fatalf("facility %d misaligned across maps", f.ID)
		}
	}
	for _, ix := range s.World.Map.IXPs() {
		nix, ok := s.Map.IXP(ix.ID)
		if !ok || nix.URL != ix.URL {
			t.Fatalf("IXP %d misaligned across maps", ix.ID)
		}
	}
	if s.Orgs.NumOrgs() == 0 {
		t.Fatal("no organizations")
	}
	if s.Dict.NumRouteServers() == 0 {
		t.Fatal("no route servers in dictionary")
	}
}

func TestEndToEndFacilityOutageDetection(t *testing.T) {
	s := buildStack(t)
	target := bestTarget(s)
	if target == 0 {
		t.Fatal("no trackable facility")
	}

	ev := simulate.Event{
		ID: 0, Kind: simulate.EvFacility, Facility: target,
		Start:    tStart.Add(5 * 24 * time.Hour), // well past the 2-day stability window
		Duration: 45 * time.Minute,
	}
	res, err := simulate.Render(s.World, []simulate.Event{ev}, tStart, tEnd, simulate.RenderConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	outages, incidents := s.Run(res.Records, core.DefaultConfig(), nil)
	if len(incidents) == 0 {
		t.Fatal("no incidents at all")
	}
	var hit *core.Outage
	for i := range outages {
		o := &outages[i]
		if o.PoP == colo.FacilityPoP(target) {
			hit = o
		}
	}
	if hit == nil {
		t.Fatalf("facility %d outage not detected; outages=%+v", target, outages)
	}
	// Start time within a couple of bins of the injected start.
	if d := hit.Start.Sub(ev.Start); d < -3*time.Minute || d > 3*time.Minute {
		t.Errorf("detected start off by %v", d)
	}
	// Duration within reason (updates jitter by up to ~45 s each way).
	if hit.Duration() < 30*time.Minute || hit.Duration() > 75*time.Minute {
		t.Errorf("detected duration %v, injected 45m", hit.Duration())
	}
}

func TestEndToEndIXPOutageDetection(t *testing.T) {
	s := buildStack(t)
	// Most trackable IXP.
	var target colo.IXPID
	bestN := 0
	for _, ix := range s.Map.IXPs() {
		n := 0
		for _, m := range ix.Members {
			if s.Dict.Covers(m) {
				n++
			}
		}
		if n > bestN {
			target, bestN = ix.ID, n
		}
	}
	if target == 0 {
		t.Fatal("no trackable IXP")
	}

	ev := simulate.Event{
		ID: 0, Kind: simulate.EvIXP, IXP: target,
		Start:    tStart.Add(5 * 24 * time.Hour),
		Duration: 2 * time.Hour,
	}
	res, err := simulate.Render(s.World, []simulate.Event{ev}, tStart, tEnd, simulate.RenderConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	outages, _ := s.Run(res.Records, core.DefaultConfig(), nil)

	found := false
	for _, o := range outages {
		// Either the IXP itself or one of its fabric facilities/city is an
		// acceptable localization; the IXP PoP is the ideal answer.
		if o.PoP == colo.IXPPoP(target) {
			found = true
		}
	}
	if !found {
		t.Fatalf("IXP %d outage not localized: %+v", target, outages)
	}
}

func TestEndToEndQuietPeriodNoFalsePositives(t *testing.T) {
	s := buildStack(t)
	res, err := simulate.Render(s.World, nil, tStart, tEnd, simulate.RenderConfig{Seed: 5, SessionResets: 4})
	if err != nil {
		t.Fatal(err)
	}
	outages, _ := s.Run(res.Records, core.DefaultConfig(), nil)
	if len(outages) != 0 {
		t.Errorf("false positives on a quiet stream: %+v", outages)
	}
}

func TestEndToEndLinkFlapsNoPoPOutages(t *testing.T) {
	s := buildStack(t)
	cfg := simulate.ScheduleConfig{
		Seed: 11, Start: tStart.Add(3 * 24 * time.Hour), End: tEnd.Add(-3 * 24 * time.Hour),
		LinkOutages: 12, MinMembers: 3,
	}
	events := simulate.GenerateSchedule(s.World, cfg)
	res, err := simulate.Render(s.World, events, tStart, tEnd, simulate.RenderConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	outages, incidents := s.Run(res.Records, core.DefaultConfig(), nil)
	// Link flaps must classify as link/AS-level, not PoP outages.
	if len(outages) != 0 {
		t.Errorf("link flaps produced PoP outages: %+v", outages)
	}
	for _, inc := range incidents {
		if inc.Kind == core.IncidentPoP {
			t.Errorf("link flap classified as PoP incident: %+v", inc)
		}
	}
}

func TestEndToEndWithDataPlane(t *testing.T) {
	s := buildStack(t)
	target := bestTarget(s)
	ev := simulate.Event{
		ID: 0, Kind: simulate.EvFacility, Facility: target,
		Start:    tStart.Add(5 * 24 * time.Hour),
		Duration: time.Hour,
	}
	res, err := simulate.Render(s.World, []simulate.Event{ev}, tStart, tEnd, simulate.RenderConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	dp := s.NewSimDataPlane(res)
	outages, _ := s.Run(res.Records, core.DefaultConfig(), dp)

	found := false
	for _, o := range outages {
		if o.PoP == colo.FacilityPoP(target) {
			found = true
			if !o.DataPlaneChecked {
				t.Error("data plane was not consulted")
			}
			if !o.Confirmed {
				t.Error("genuine outage not confirmed by data plane")
			}
		}
	}
	if !found {
		t.Fatal("outage vanished with data plane enabled")
	}
	if dp.Used() == 0 {
		t.Error("no targeted traceroutes issued")
	}
}

func TestDictionaryCoversEnoughASes(t *testing.T) {
	s := buildStack(t)
	users := 0
	for _, a := range s.World.ASes {
		if a.UsesCommunities && a.Documents {
			users++
		}
	}
	covered := len(s.Dict.CoveredASNs())
	if covered == 0 {
		t.Fatal("dictionary covers nothing")
	}
	// Mining should recover the vast majority of documenting operators.
	if float64(covered) < 0.8*float64(users) {
		t.Errorf("dictionary covers %d of %d documenting ASes", covered, users)
	}
}

func TestTrackableFacilitiesExist(t *testing.T) {
	s := buildStack(t)
	trackable := 0
	for _, f := range s.Map.Facilities() {
		if ok, _ := s.Map.Trackable(f.ID, func(a bgp.ASN) bool { return s.Dict.Covers(a) }); ok {
			trackable++
		}
	}
	if trackable == 0 {
		t.Fatal("no trackable facilities — detection would be impossible")
	}
	t.Logf("trackable facilities: %d / %d", trackable, s.Map.NumFacilities())
}
