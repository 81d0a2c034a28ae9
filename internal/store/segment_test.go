package store

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kepler/internal/metrics"
)

// segFiles lists history-segment files with the given prefix, sorted.
func segFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) && strings.HasSuffix(e.Name(), ".seg") {
			out = append(out, e.Name())
		}
	}
	return out
}

// fillCompacted appends bins one compaction at a time (CompactBytes=1 makes
// every bin close compact) so history accumulates across several sealed
// segments, and returns the reference history materialized before close.
func fillCompacted(t *testing.T, dir string, m *metrics.StoreStats, bins int) History {
	t.Helper()
	s := open(t, Options{Dir: dir, CompactBytes: 1, Metrics: m})
	appendAll(t, s, mkEvents(0, bins))
	ref := s.History()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &metrics.StoreStats{}
	const bins = 7
	ref := fillCompacted(t, dir, m, bins)
	if len(ref.Resolved) != bins || len(ref.Incidents) != bins {
		t.Fatalf("reference history has %d/%d entries, want %d/%d",
			len(ref.Resolved), len(ref.Incidents), bins, bins)
	}
	// Each compaction seals only the delta since the previous one: multiple
	// segments per type, none rewritten.
	if got := segFiles(t, dir, outSegPrefix); len(got) < 2 {
		t.Fatalf("want >=2 outage segments from %d compactions, got %v", bins, got)
	}
	ms := m.Snapshot()
	if ms.SegmentsSealed == 0 || ms.IndexWrites == 0 {
		t.Fatalf("expected sealed segments and index writes, got %+v", ms)
	}

	m2 := &metrics.StoreStats{}
	s2 := open(t, Options{Dir: dir, CompactBytes: 1 << 30, Metrics: m2})
	defer s2.Close()
	if got := s2.History(); !reflect.DeepEqual(got, ref) {
		t.Errorf("history after reopen differs:\n got %+v\nwant %+v", got, ref)
	}
	// Reopen must not have needed a rebuild: the indexes written at
	// compaction are intact.
	if r := m2.Snapshot().IndexRebuilds; r != 0 {
		t.Errorf("index rebuilds on clean reopen = %d, want 0", r)
	}

	// Paged reads across all segment boundaries agree with the full
	// materialization, for every (start, count) window.
	for start := 0; start <= bins; start++ {
		for count := 0; count <= bins-start+2; count++ {
			got, err := s2.ReadOutages(start, count)
			if err != nil {
				t.Fatalf("ReadOutages(%d,%d): %v", start, count, err)
			}
			want := ref.Resolved[start:min(start+count, bins)]
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("ReadOutages(%d,%d) = %d entries, mismatch", start, count, len(got))
			}
			gotInc, err := s2.ReadIncidents(start, count)
			if err != nil {
				t.Fatalf("ReadIncidents(%d,%d): %v", start, count, err)
			}
			wantInc := ref.Incidents[start:min(start+count, bins)]
			if len(gotInc) != len(wantInc) || (len(gotInc) > 0 && !reflect.DeepEqual(gotInc, wantInc)) {
				t.Fatalf("ReadIncidents(%d,%d) mismatch", start, count)
			}
		}
	}

	sum := s2.Summary()
	if sum.ResolvedTotal != bins || sum.IncidentTotal != bins {
		t.Errorf("summary totals = %d/%d, want %d/%d", sum.ResolvedTotal, sum.IncidentTotal, bins, bins)
	}
}

func TestReadCacheCounters(t *testing.T) {
	dir := t.TempDir()
	const bins = 5
	fillCompacted(t, dir, &metrics.StoreStats{}, bins)

	m := &metrics.StoreStats{}
	s := open(t, Options{Dir: dir, CompactBytes: 1 << 30, ReadCache: 64, Metrics: m})
	defer s.Close()
	if _, err := s.ReadOutages(0, bins); err != nil {
		t.Fatal(err)
	}
	first := m.Snapshot()
	if first.ReadCacheMisses == 0 || first.SegmentReads == 0 {
		t.Fatalf("cold read should miss the cache and hit segments, got %+v", first)
	}
	if _, err := s.ReadOutages(0, bins); err != nil {
		t.Fatal(err)
	}
	second := m.Snapshot()
	if second.ReadCacheHits < int64(bins) {
		t.Errorf("warm read hits = %d, want >= %d", second.ReadCacheHits, bins)
	}
	if second.ReadCacheMisses != first.ReadCacheMisses {
		t.Errorf("warm read added misses: %d -> %d", first.ReadCacheMisses, second.ReadCacheMisses)
	}
	if second.SegmentReads != first.SegmentReads {
		t.Errorf("warm read touched segments: %d -> %d", first.SegmentReads, second.SegmentReads)
	}
}

func TestReadCacheEviction(t *testing.T) {
	dir := t.TempDir()
	const bins = 6
	ref := fillCompacted(t, dir, &metrics.StoreStats{}, bins)

	// A capacity-2 cache thrashes but must never serve wrong entries.
	s := open(t, Options{Dir: dir, CompactBytes: 1 << 30, ReadCache: 2})
	defer s.Close()
	for pass := 0; pass < 3; pass++ {
		for start := 0; start < bins; start++ {
			got, err := s.ReadOutages(start, 2)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Resolved[start:min(start+2, bins)]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d ReadOutages(%d,2) mismatch", pass, start)
			}
		}
	}
}

// corruptIndexes applies fn to every outage-segment index sidecar.
func corruptIndexes(t *testing.T, dir string, fn func(path string)) int {
	t.Helper()
	n := 0
	for _, name := range segFiles(t, dir, outSegPrefix) {
		fn(idxPath(filepath.Join(dir, name)))
		n++
	}
	if n == 0 {
		t.Fatal("no segments to corrupt")
	}
	return n
}

func TestIndexMissingRebuiltOnOpen(t *testing.T) {
	dir := t.TempDir()
	ref := fillCompacted(t, dir, &metrics.StoreStats{}, 5)
	n := corruptIndexes(t, dir, func(p string) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	})

	m := &metrics.StoreStats{}
	s := open(t, Options{Dir: dir, CompactBytes: 1 << 30, Metrics: m})
	defer s.Close()
	if got := int(m.Snapshot().IndexRebuilds); got != n {
		t.Errorf("index rebuilds = %d, want %d", got, n)
	}
	if got := s.History(); !reflect.DeepEqual(got.Resolved, ref.Resolved) {
		t.Error("history differs after index rebuild")
	}
	// Rebuilt indexes are rewritten: a second open scans nothing.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := &metrics.StoreStats{}
	s2 := open(t, Options{Dir: dir, CompactBytes: 1 << 30, Metrics: m2})
	defer s2.Close()
	if got := m2.Snapshot().IndexRebuilds; got != 0 {
		t.Errorf("rebuilds on second open = %d, want 0", got)
	}
}

func TestIndexCorruptionNeverWrongPages(t *testing.T) {
	cases := []struct {
		name string
		fn   func(t *testing.T, p string)
	}{
		{"truncated", func(t *testing.T, p string) {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, p string) {
			if err := os.WriteFile(p, []byte("not an index at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip", func(t *testing.T, p string) {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-3] ^= 0xff // flip inside an offset: CRC catches it
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, p string) {
			if err := os.WriteFile(p, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const bins = 5
			ref := fillCompacted(t, dir, &metrics.StoreStats{}, bins)
			corruptIndexes(t, dir, func(p string) { tc.fn(t, p) })

			m := &metrics.StoreStats{}
			s := open(t, Options{Dir: dir, CompactBytes: 1 << 30, Metrics: m})
			defer s.Close()
			if m.Snapshot().IndexRebuilds == 0 {
				t.Error("corrupt index was accepted without a rebuild")
			}
			for start := 0; start < bins; start++ {
				got, err := s.ReadOutages(start, 2)
				if err != nil {
					t.Fatalf("ReadOutages(%d,2): %v", start, err)
				}
				want := ref.Resolved[start:min(start+2, bins)]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ReadOutages(%d,2) served wrong page after %s index", start, tc.name)
				}
			}
			if got := s.History(); !reflect.DeepEqual(got.Resolved, ref.Resolved) {
				t.Error("history differs after corrupt-index recovery")
			}
		})
	}
}

func TestLegacyManifestSkipped(t *testing.T) {
	// A version-0 manifest (pre-incremental builds inlined full history in
	// the snap frame) is no longer a supported format: recovery must treat
	// it like any other unreadable snapshot — skip it whole, say so, and
	// rebuild from the WAL — never adopt its sequence or totals.
	dir := t.TempDir()
	s := open(t, Options{Dir: dir, CompactBytes: 1 << 30})
	appendAll(t, s, mkEvents(0, 4))
	ref := s.History()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{
		"seq": ref.LastSeq + 100, "last_bin": ref.LastBin.Add(time.Hour),
		"resolved": ref.Resolved[:1], "incidents": ref.Incidents[:1], "tail": []any{},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, segName(snapPrefix, ref.LastSeq+100)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(f, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	s2 := open(t, Options{Dir: dir, CompactBytes: 1 << 30,
		Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	defer s2.Close()
	if got := s2.History(); !reflect.DeepEqual(got, ref) {
		t.Errorf("history after skipping the legacy manifest:\n got  %+v\n want %+v", got, ref)
	}
	if !strings.Contains(logged.String(), "unsupported manifest version 0") {
		t.Errorf("skipped manifest not reported; log:\n%s", logged.String())
	}
	// Appends continue the WAL's numbering, not the rejected manifest's.
	appendAll(t, s2, mkEvents(ref.LastSeq, 1))
}

func TestTruncatedSegmentTailDetected(t *testing.T) {
	// A segment whose final frame is torn (crash mid-seal would have left
	// a .tmp, but disks lie): the index rebuilt from a scan only covers
	// intact frames, and reads stay correct for those.
	dir := t.TempDir()
	const bins = 4
	ref := fillCompacted(t, dir, &metrics.StoreStats{}, bins)
	segs := segFiles(t, dir, outSegPrefix)
	last := filepath.Join(dir, segs[len(segs)-1])
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(idxPath(last)); err != nil {
		t.Fatal(err)
	}

	m := &metrics.StoreStats{}
	s := open(t, Options{Dir: dir, CompactBytes: 1 << 30, Metrics: m})
	defer s.Close()
	got := s.History()
	// The torn final entry is gone; everything before it is intact.
	if want := ref.Resolved[:bins-1]; !reflect.DeepEqual(got.Resolved, want) {
		t.Errorf("resolved after torn tail = %d entries, want %d intact", len(got.Resolved), len(want))
	}
}

func TestHistoryLargeCountClamped(t *testing.T) {
	dir := t.TempDir()
	const bins = 3
	fillCompacted(t, dir, &metrics.StoreStats{}, bins)
	s := open(t, Options{Dir: dir, CompactBytes: 1 << 30})
	defer s.Close()
	if got, err := s.ReadOutages(0, 1<<30); err != nil || len(got) != bins {
		t.Errorf("huge count: got %d entries, err=%v; want %d", len(got), err, bins)
	}
	if got, err := s.ReadOutages(bins+5, 2); err != nil || len(got) != 0 {
		t.Errorf("past-end start: got %d entries, err=%v; want 0", len(got), err)
	}
	if _, err := s.ReadOutages(-3, 2); err == nil {
		t.Error("negative start: want error, got nil")
	}
}
