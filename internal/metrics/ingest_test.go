package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestIngestStatsSnapshot(t *testing.T) {
	var s IngestStats
	s.Begin()
	s.Records.Add(1000)
	s.Ops.Add(2500)
	s.Bins.Add(10)
	s.BarrierNanos.Add(int64(20 * time.Millisecond))

	snap := s.Snapshot()
	if snap.Records != 1000 || snap.Ops != 2500 || snap.Bins != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.BinLag != 2*time.Millisecond {
		t.Errorf("bin lag = %v, want 2ms", snap.BinLag)
	}
	if snap.RecordsPerSec <= 0 {
		t.Errorf("rate = %v, want > 0", snap.RecordsPerSec)
	}
	if line := snap.String(); !strings.Contains(line, "records=1000") || !strings.Contains(line, "bins=10") {
		t.Errorf("render = %q", line)
	}

	// Begin is idempotent: a later call must not reset the rate clock.
	first := s.start.Load()
	s.Begin()
	if s.start.Load() != first {
		t.Error("Begin reset the start clock")
	}
}

func TestIngestStatsZeroValue(t *testing.T) {
	var s IngestStats
	snap := s.Snapshot()
	if snap.RecordsPerSec != 0 || snap.BinLag != 0 {
		t.Errorf("zero-value snapshot computed rates: %+v", snap)
	}
}
