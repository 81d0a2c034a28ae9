package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kepler/internal/colo"
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

// TestReplayShardCountsAgree replays one archive on one shard worker and
// on three: the report on stdout must be byte-identical and hold the
// injected outage, and a truncated archive must fail the run.
func TestReplayShardCountsAgree(t *testing.T) {
	archive := renderArchive(t)
	replay := func(shards string) string {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-seed", "1", "-archive", archive, "-shards", shards}, &stdout, &stderr); err != nil {
			t.Fatalf("-shards %s: %v\n%s", shards, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "ingest finished") {
			t.Errorf("-shards %s logged no ingest stats:\n%s", shards, stderr.String())
		}
		return stdout.String()
	}
	one, three := replay("1"), replay("3")
	if !strings.Contains(one, "OUTAGE ") {
		t.Fatalf("no OUTAGE line for the injected facility outage:\n%s", one)
	}
	if one != three {
		t.Errorf("stdout differs across shard counts:\n-shards 1:\n%s\n-shards 3:\n%s", one, three)
	}

	data, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "truncated.mrt")
	if err := os.WriteFile(cut, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-seed", "1", "-archive", cut, "-shards", "3"}, &stdout, &stderr); err == nil {
		t.Error("a truncated archive replayed without error")
	}
}
