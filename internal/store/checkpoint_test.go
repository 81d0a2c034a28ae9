package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kepler/internal/events"
	"kepler/internal/metrics"
)

func openCkptStore(t *testing.T, dir string, m *metrics.StoreStats) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mkCkpt(seq, records uint64) *Checkpoint {
	return &Checkpoint{
		EventSeq: seq,
		Records:  records,
		BinEnd:   time.Date(2016, 1, 1, 0, int(records), 0, 0, time.UTC),
		Engine:   []byte(fmt.Sprintf("engine state after %d records", records)),
	}
}

func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ckptPrefix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestCheckpointRoundTripAndRotation pins the segment lifecycle: newest
// wins, and only keepCheckpoints generations survive a save.
func TestCheckpointRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	m := &metrics.StoreStats{}
	s := openCkptStore(t, dir, m)
	for i, seq := range []uint64{10, 20, 30} {
		if err := s.SaveCheckpoint(mkCkpt(seq, uint64(i+1)*100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ckptFiles(t, dir); len(got) != keepCheckpoints {
		t.Fatalf("checkpoint files after rotation = %v, want %d", got, keepCheckpoints)
	}
	if m.CheckpointSaves.Load() != 3 || m.CheckpointBytes.Load() == 0 {
		t.Fatalf("save counters = %d/%d", m.CheckpointSaves.Load(), m.CheckpointBytes.Load())
	}

	c := s.LoadCheckpoint(nil)
	if c == nil || c.EventSeq != 30 || c.Records != 300 {
		t.Fatalf("loaded checkpoint = %+v, want seq 30", c)
	}
	if !c.BinEnd.Equal(mkCkpt(30, 300).BinEnd) {
		t.Fatalf("BinEnd did not round-trip: %v", c.BinEnd)
	}

	// A fresh Open over the same dir sees the same newest checkpoint.
	s2 := openCkptStore(t, dir, nil)
	if c2 := s2.LoadCheckpoint(nil); c2 == nil || c2.EventSeq != 30 {
		t.Fatalf("reopened store loaded %+v", c2)
	}
}

// corrupt applies fn to the named checkpoint segment's bytes.
func corrupt(t *testing.T, dir string, seq uint64, fn func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, segName(ckptPrefix, seq))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptionFallback is the recovery ladder: a truncated
// frame or a checksum mismatch in the newest checkpoint falls back to the
// older one; when that is gone too, LoadCheckpoint reports nothing and the
// caller re-ingests from record zero. Partial restores never happen — a
// damaged segment is rejected wholesale by the frame checksum.
func TestCheckpointCorruptionFallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated-frame", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad-crc", func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[len(mut)-1] ^= 0xff // flip a payload byte: CRC32C mismatch
			return mut
		}},
		{"garbage", func(b []byte) []byte { return []byte("not a checkpoint at all") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := &metrics.StoreStats{}
			s := openCkptStore(t, dir, m)
			if err := s.SaveCheckpoint(mkCkpt(10, 100)); err != nil {
				t.Fatal(err)
			}
			if err := s.SaveCheckpoint(mkCkpt(20, 200)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, dir, 20, tc.fn)

			c := s.LoadCheckpoint(nil)
			if c == nil || c.EventSeq != 10 {
				t.Fatalf("fallback loaded %+v, want the older seq-10 checkpoint", c)
			}
			if m.CheckpointsDiscarded.Load() != 1 {
				t.Fatalf("discarded counter = %d, want 1", m.CheckpointsDiscarded.Load())
			}

			corrupt(t, dir, 10, tc.fn)
			if c := s.LoadCheckpoint(nil); c != nil {
				t.Fatalf("both segments corrupt but LoadCheckpoint returned %+v", c)
			}
			if m.CheckpointsDiscarded.Load() != 3 {
				t.Fatalf("discarded counter = %d, want 3", m.CheckpointsDiscarded.Load())
			}
		})
	}
}

// TestCheckpointAcceptFallback pins the semantic gate: a structurally valid
// checkpoint the caller rejects (engine version mismatch, event sequence
// ahead of the durable horizon) falls back exactly like a corrupt one.
func TestCheckpointAcceptFallback(t *testing.T) {
	dir := t.TempDir()
	m := &metrics.StoreStats{}
	s := openCkptStore(t, dir, m)
	if err := s.SaveCheckpoint(mkCkpt(10, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint(mkCkpt(20, 200)); err != nil {
		t.Fatal(err)
	}

	// Reject the newest only — e.g. its EventSeq lies beyond the recovered
	// WAL horizon after a machine crash lost the last WAL pages.
	c := s.LoadCheckpoint(func(c *Checkpoint) error {
		if c.EventSeq > 15 {
			return fmt.Errorf("checkpoint ahead of durable horizon")
		}
		return nil
	})
	if c == nil || c.EventSeq != 10 {
		t.Fatalf("accept fallback loaded %+v, want seq 10", c)
	}
	if m.CheckpointsDiscarded.Load() != 1 {
		t.Fatalf("discarded counter = %d, want 1", m.CheckpointsDiscarded.Load())
	}

	// Reject everything — e.g. a core.CheckpointVersion bump: recovery must
	// degrade to full re-ingest, never a partial restore.
	if c := s.LoadCheckpoint(func(*Checkpoint) error { return fmt.Errorf("version mismatch") }); c != nil {
		t.Fatalf("all rejected but LoadCheckpoint returned %+v", c)
	}
}

// TestCheckpointSurvivesCompaction pins that WAL compaction's segment
// cleanup leaves checkpoint files alone.
func TestCheckpointSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, CompactBytes: 1}) // compact at every bin close
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveCheckpoint(mkCkpt(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(events.Event{Seq: 1, Time: time.Date(2016, 1, 1, 0, 1, 0, 0, time.UTC), Kind: events.KindBinClosed}); err != nil {
		t.Fatal(err)
	}
	if s.LoadCheckpoint(nil) == nil {
		t.Fatal("compaction removed the checkpoint segment")
	}
}

// TestCheckpointOlderFormatDiscarded pins the upgrade path: a segment an
// older build wrote (a CRC-valid frame around a JSON envelope) is counted as
// discarded, never half-read, and an older binary generation behind it is
// still served.
func TestCheckpointOlderFormatDiscarded(t *testing.T) {
	dir := t.TempDir()
	m := &metrics.StoreStats{}
	s := openCkptStore(t, dir, m)
	if err := s.SaveCheckpoint(mkCkpt(10, 100)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, segName(ckptPrefix, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(f, []byte(`{"event_seq":20,"records":200,"bin_end":"2016-01-01T00:00:00Z","engine":{"version":2}}`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if c := s.LoadCheckpoint(nil); c == nil || c.EventSeq != 10 {
		t.Fatalf("loaded %+v, want the binary seq-10 generation", c)
	}
	if got := m.CheckpointsDiscarded.Load(); got != 1 {
		t.Fatalf("discarded counter = %d, want 1", got)
	}
}

// TestCheckpointTmpRemovedOnRenameFailure pins the error path of the
// atomic rename: the temp file must not outlive a failed save.
func TestCheckpointTmpRemovedOnRenameFailure(t *testing.T) {
	dir := t.TempDir()
	s := openCkptStore(t, dir, nil)
	if err := s.SaveCheckpoint(mkCkpt(10, 100)); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory squatting on the segment name makes the rename
	// fail after the temp file was written and synced.
	squat := filepath.Join(dir, segName(ckptPrefix, 20))
	if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint(mkCkpt(20, 200)); err == nil {
		t.Fatal("save over a directory succeeded")
	}
	for _, name := range ckptFiles(t, dir) {
		if strings.HasSuffix(name, ckptTmpExt) {
			t.Fatalf("failed save left %s behind", name)
		}
	}
	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	if c := s.LoadCheckpoint(nil); c == nil || c.EventSeq != 10 {
		t.Fatalf("after the failed save loaded %+v, want seq 10", c)
	}
}

// TestCheckpointCrashMidSave is the crash point between the temp file's
// creation and its rename: reopening serves the older generation and sweeps
// the orphan.
func TestCheckpointCrashMidSave(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})
	if err := s.SaveCheckpoint(mkCkpt(10, 100)); err != nil {
		t.Fatal(err)
	}
	// SIGKILL model: s is abandoned; the next save got as far as a partly
	// written temp file.
	c := mkCkpt(20, 200)
	seg := append(checkpointHead(c), c.Engine...)
	orphan := filepath.Join(dir, segName(ckptPrefix, 20)+ckptTmpExt)
	if err := os.WriteFile(orphan, seg[:len(seg)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	m := &metrics.StoreStats{}
	s2 := openCkptStore(t, dir, m)
	if got := s2.LoadCheckpoint(nil); got == nil || got.EventSeq != 10 {
		t.Fatalf("reopened store loaded %+v, want the seq-10 generation", got)
	}
	if m.CheckpointsDiscarded.Load() != 0 {
		t.Fatalf("the orphan was tried as a checkpoint (%d discarded)", m.CheckpointsDiscarded.Load())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived Open: %v", err)
	}
}

// TestCheckpointSaveBesideReads pages sealed and unsealed history from
// several goroutines while checkpoints are being saved and bins appended:
// SaveCheckpoint shares only the closed flag with the readers. Run with
// -race.
func TestCheckpointSaveBesideReads(t *testing.T) {
	dir := t.TempDir()
	const bins = 40
	fillCompacted(t, dir, nil, bins)
	s := open(t, Options{Dir: dir, CompactBytes: 1 << 30, ReadCache: 8})
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for start := r; ; start = (start + 7) % bins {
				select {
				case <-stop:
					return
				default:
				}
				outs, err := s.ReadOutages(start, 5)
				if err != nil || len(outs) == 0 || outs[0].PoP.ID != uint32(start+1) {
					t.Errorf("ReadOutages(%d) = %d entries, %v", start, len(outs), err)
					return
				}
				if _, err := s.ReadIncidents(start, 5); err != nil {
					t.Errorf("ReadIncidents(%d): %v", start, err)
					return
				}
			}
		}(r)
	}
	evs := mkEvents(uint64(4*bins), 20)
	engine := make([]byte, 256<<10)
	for i := 0; i < 20; i++ {
		appendAll(t, s, evs[4*i:4*i+4])
		c := mkCkpt(evs[4*i+3].Seq, uint64(i))
		c.Engine = engine
		if err := s.SaveCheckpoint(c); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if c := s.LoadCheckpoint(nil); c == nil || c.EventSeq != evs[len(evs)-1].Seq {
		t.Fatalf("after concurrent saves loaded %+v", c)
	}
}

// FuzzCheckpointSegment feeds the segment parser hostile files, each both
// as it is and as the payload of a frame with a valid checksum — mutation
// alone almost never gets past the CRC to the envelope parser. The layout
// is fixed-width, so whatever parses must render back to the same bytes.
func FuzzCheckpointSegment(f *testing.F) {
	engine, err := os.ReadFile("../core/testdata/checkpoint_v4.golden")
	if err != nil {
		f.Fatal(err)
	}
	c := mkCkpt(20, 200)
	c.Engine, c.Window, c.WindowPos = engine, 3, -1
	seg := append(checkpointHead(c), c.Engine...)
	f.Add(seg)
	f.Add(seg[frameHeaderSize:])
	f.Add(seg[:frameHeaderSize+ckptHeaderSize])
	f.Add(seg[:len(seg)-1])
	f.Fuzz(func(t *testing.T, b []byte) {
		var framed bytes.Buffer
		writeFrame(&framed, b)
		for _, seg := range [][]byte{b, framed.Bytes()} {
			c, err := decodeCheckpointSeg(seg)
			if err != nil {
				continue
			}
			if again := append(checkpointHead(c), c.Engine...); !bytes.Equal(again, seg) {
				t.Fatalf("segment does not render back to its bytes: %+v", c)
			}
		}
	})
}
