package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

// renderArchive writes a six-day archive of the seed-1 world with one
// 45-minute outage of its most trackable facility on day five, and returns
// its path.
func renderArchive(t *testing.T) string {
	t.Helper()
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stack := pipeline.Build(w, 77)
	var target colo.FacilityID
	best := 0
	for _, f := range stack.Map.Facilities() {
		if _, n := stack.Map.Trackable(f.ID, stack.Dict.Covers); n > best {
			target, best = f.ID, n
		}
	}
	start := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	res, err := simulate.Render(w, []simulate.Event{{
		Kind: simulate.EvFacility, Facility: target,
		Start: start.Add(5 * 24 * time.Hour), Duration: 45 * time.Minute,
	}}, start, start.Add(6*24*time.Hour), simulate.RenderConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mrt.WriteAll(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "archive.mrt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayMatchesReference replays one archive, with incidents, and
// prints what the reference engine (pipeline.Stack.Run, every bin closed)
// finds on the same records in the same format: stdout must be
// byte-identical and hold the injected outage. A truncated archive must
// fail the run, and the removed -shards flag must be rejected.
func TestReplayMatchesReference(t *testing.T) {
	archive := renderArchive(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-seed", "1", "-archive", archive, "-v"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "ingest finished") {
		t.Errorf("logged no ingest stats:\n%s", stderr.String())
	}
	got := stdout.String()
	if !strings.Contains(got, "OUTAGE ") {
		t.Fatalf("no OUTAGE line for the injected facility outage:\n%s", got)
	}

	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stack := pipeline.Build(w, 77)
	f, err := os.Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := mrt.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ReportUnresolved = true
	outs, incs := stack.Run(recs, cfg, nil)
	var want bytes.Buffer
	for _, o := range outs {
		printOutage(&want, stack, o)
	}
	for _, inc := range incs {
		if inc.Kind != core.IncidentPoP {
			fmt.Fprintf(&want, "incident %s %-9s signal=%v affected=%d links=%d\n",
				inc.Time.Format("2006-01-02 15:04"), inc.Kind, inc.SignalPoP,
				len(inc.AffectedASes), inc.Links)
		}
	}
	if got != want.String() {
		t.Errorf("stdout differs from the reference engine's:\nkepler:\n%s\nreference:\n%s", got, want.String())
	}

	data, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "truncated.mrt")
	if err := os.WriteFile(cut, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "1", "-archive", cut}, io.Discard, io.Discard); err == nil {
		t.Error("a truncated archive replayed without error")
	}
	stderr.Reset()
	if err := run([]string{"-seed", "1", "-archive", archive, "-shards", "2"}, io.Discard, &stderr); !errors.Is(err, errUsage) ||
		!strings.Contains(stderr.String(), "flag provided but not defined: -shards") {
		t.Errorf("-shards 2: err %v, stderr %q; want the flag rejected", err, stderr.String())
	}
}
