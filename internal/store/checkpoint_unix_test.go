//go:build unix

package store

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestCheckpointSaveHoldsNoLockOverIO parks a save inside its file I/O — a
// FIFO squatting on the temp path blocks open(2) until somebody reads — and
// pages history meanwhile. With Store.mu held across the save, the reads
// would wait for it; they must complete while the save is still stuck.
func TestCheckpointSaveHoldsNoLockOverIO(t *testing.T) {
	dir := t.TempDir()
	const bins = 6
	fillCompacted(t, dir, nil, bins)
	s := open(t, Options{Dir: dir, CompactBytes: 1 << 30})
	defer s.Close()

	c := mkCkpt(99, 1)
	fifo := filepath.Join(dir, segName(ckptPrefix, c.EventSeq)+ckptTmpExt)
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	saved := make(chan error, 1)
	go func() { saved <- s.SaveCheckpoint(c) }()

	read := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 200 && err == nil; i++ {
			_, err = s.ReadOutages(i%bins, 2)
			time.Sleep(100 * time.Microsecond) // let the save reach open(2)
		}
		read <- err
	}()
	var stalled string
	select {
	case err := <-read:
		if err != nil {
			stalled = err.Error()
		}
	case err := <-saved:
		t.Fatalf("save returned (%v) with nobody reading the FIFO", err)
	case <-time.After(10 * time.Second):
		stalled = "reads stalled behind a checkpoint save"
	}

	// Release the save (before failing: a save stuck under the lock would
	// hang the deferred Close): drain the FIFO. fsync on a pipe is EINVAL,
	// so the save fails — and must take its temp file with it.
	r, err := os.OpenFile(fifo, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, r)
	if err := <-saved; err == nil {
		t.Error("save through a FIFO reported success")
	}
	r.Close()
	if stalled != "" {
		t.Fatal(stalled)
	}
	if _, err := os.Stat(fifo); !os.IsNotExist(err) {
		t.Errorf("failed save left its temp file behind: %v", err)
	}
}

// TestSaverParkedInIO is the saver's rule with the save stuck where a slow
// disk sticks it — inside SaveCheckpoint's file I/O, parked on a FIFO as
// above — rather than in a test encoder: due barriers keep returning at
// once, and since a save through a FIFO fails at fsync, releasing it leaves
// the checkpoint due, the next barrier retries, and that one lands.
func TestSaverParkedInIO(t *testing.T) {
	r := newSaverRig(t, 15*time.Minute, time.Time{}, allDue(64)...)
	fifo := filepath.Join(r.st.opts.Dir, segName(ckptPrefix, 1)+ckptTmpExt) // barrier 0 saves at event seq 1
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	r.barrier(0, false)
	for i := 1; i <= 5; i++ {
		r.barrier(i, false)
	}
	if len(r.captured) != 1 || r.stats.Deferred.Load() != 5 {
		t.Errorf("with barrier 0's save parked in open(2): captured %v, %d deferred; want [0] and 5", r.captured, r.stats.Deferred.Load())
	}
	rd, err := os.OpenFile(fifo, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, rd)
	r.sv.Wait()
	rd.Close()
	if n := r.saves.CheckpointSaves.Load(); n != 0 {
		t.Fatalf("a save through a FIFO counted as saved (%d)", n)
	}
	if _, err := os.Stat(fifo); !os.IsNotExist(err) {
		t.Errorf("failed save left its temp file behind: %v", err)
	}
	r.barrier(6, false)
	r.sv.Wait()
	if len(r.captured) != 2 || r.captured[1] != 6 {
		t.Fatalf("captured %v, want barrier 6 to retry the failed checkpoint", r.captured)
	}
	r.newestIs(6)
}
