package store

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"

	"kepler/internal/metrics"
)

// fakeState is an EngineState whose encoding is its text. gate, when set,
// parks AppendEncode — on the saver's goroutine — until it is closed: a
// save in flight for exactly as long as the test wants.
type fakeState struct {
	text string
	gate chan struct{}
	fail error
}

func (f fakeState) AppendEncode(b []byte) ([]byte, error) {
	if f.gate != nil {
		<-f.gate
	}
	if f.fail != nil {
		return b, f.fail
	}
	return append(b, f.text...), nil
}

// saverRig drives a CheckpointSaver over numbered barriers the way a
// BinClosed hook does, recording which of them were captured.
type saverRig struct {
	t        *testing.T
	st       *Store
	sv       *CheckpointSaver
	ends     []time.Time
	stats    *metrics.CheckpointStats
	saves    *metrics.StoreStats
	log      bytes.Buffer
	captured []int
	// state builds barrier i's engine state; nil leaves it an ungated
	// fakeState. captureErr fails barrier i's capture.
	state      func(i int) fakeState
	captureErr func(i int) error
}

// newSaverRig opens a store and a saver resuming from last over barriers
// gaps[0], gaps[0]+gaps[1], ... minutes into 2016.
func newSaverRig(t *testing.T, interval time.Duration, last time.Time, gaps ...int) *saverRig {
	t.Helper()
	r := &saverRig{t: t, stats: &metrics.CheckpointStats{}, saves: &metrics.StoreStats{}}
	at := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, g := range gaps {
		at = at.Add(time.Duration(g) * time.Minute)
		r.ends = append(r.ends, at)
	}
	r.st = openCkptStore(t, t.TempDir(), r.saves)
	r.sv = NewCheckpointSaver(r.st, interval, last, r.stats, slog.New(slog.NewTextHandler(&r.log, nil)))
	t.Cleanup(func() {
		r.closeSaver()
		r.st.Close()
	})
	return r
}

func (r *saverRig) closeSaver() {
	if r.sv != nil {
		r.sv.Close()
		r.sv = nil
	}
}

// allDue is n barriers 20 minutes apart: under a 15-minute interval the
// synchronous rule checkpoints at every one.
func allDue(n int) []int {
	gaps := make([]int, n)
	for i := range gaps {
		gaps[i] = 20
	}
	return gaps
}

func stateText(i int) string { return fmt.Sprintf("engine state at barrier %d", i) }

func (r *saverRig) barrier(i int, ended bool) {
	r.sv.Barrier(r.ends[i], ended, func() (*CheckpointCapture, error) {
		if r.captureErr != nil {
			if err := r.captureErr(i); err != nil {
				return nil, err
			}
		}
		r.captured = append(r.captured, i)
		st := fakeState{}
		if r.state != nil {
			st = r.state(i)
		}
		st.text = stateText(i)
		return &CheckpointCapture{Checkpoint: Checkpoint{EventSeq: uint64(i) + 1, Records: uint64(i)}, State: st}, nil
	})
}

// newestIs requires the newest checkpoint on disk to be barrier i's.
func (r *saverRig) newestIs(i int) {
	r.t.Helper()
	c := r.st.LoadCheckpoint(nil)
	if c == nil {
		r.t.Fatalf("no checkpoint on disk, want barrier %d's", i)
	}
	if c.Records != uint64(i) || !c.BinEnd.Equal(r.ends[i]) || string(c.Engine) != stateText(i) {
		r.t.Fatalf("newest checkpoint on disk: record %d, bin %v, %q; want barrier %d's (%v)", c.Records, c.BinEnd, c.Engine, i, r.ends[i])
	}
}

// TestSaverIdleMatchesSynchronousSchedule pins what "at live pace nothing
// changes" means: when every save finishes before the next barrier, the
// saver captures exactly the barriers the synchronous rule — due once
// interval has passed since the last checkpoint's barrier — saved inline,
// and a saver resuming from one of them carries the schedule on.
func TestSaverIdleMatchesSynchronousSchedule(t *testing.T) {
	const interval = 15 * time.Minute
	gaps := []int{1, 1, 14, 1, 23, 1, 1, 13, 1, 1, 1, 42, 7, 7, 7, 15, 14, 1, 30}
	r := newSaverRig(t, interval, time.Time{}, gaps...)
	var want []int
	var last time.Time
	for i, end := range r.ends {
		if last.IsZero() || end.Sub(last) >= interval {
			want = append(want, i)
			last = end
		}
	}
	for i := range r.ends {
		r.barrier(i, false)
		r.sv.Wait() // the save finishes between barriers
	}
	if !reflect.DeepEqual(r.captured, want) {
		t.Fatalf("captured barriers %v, the synchronous schedule is %v", r.captured, want)
	}
	n := int64(len(want))
	if d, saves := r.stats.Deferred.Load(), r.saves.CheckpointSaves.Load(); d != 0 || saves != n {
		t.Errorf("%d deferred, %d saved; want 0 and %d", d, saves, n)
	}
	if in, sv := r.stats.Ingest.Snapshot().Count, r.stats.Save.Snapshot().Count; in != n || sv != n {
		t.Errorf("ingest histogram holds %d observations, save histogram %d; want %d each", in, sv, n)
	}
	r.newestIs(want[len(want)-1])

	// Resumed from the third checkpoint, the rest of the schedule follows.
	r2 := newSaverRig(t, interval, r.ends[want[2]], gaps...)
	for i := want[2] + 1; i < len(r2.ends); i++ {
		r2.barrier(i, false)
		r2.sv.Wait()
	}
	if !reflect.DeepEqual(r2.captured, want[3:]) {
		t.Errorf("resumed from barrier %d: captured %v, want %v", want[2], r2.captured, want[3:])
	}
}

// TestSaverDefersWhileSaving is the rule itself: while a save is in flight
// due barriers return at once — nothing captured, nothing queued, ingest
// closing bins all the while — and the first barrier that finds the saver
// idle is captured, with that barrier's state and envelope. The interval
// then counts from the barrier actually captured.
func TestSaverDefersWhileSaving(t *testing.T) {
	r := newSaverRig(t, 15*time.Minute, time.Time{}, allDue(64)...)
	gate := make(chan struct{})
	r.state = func(i int) fakeState {
		if i == 0 {
			return fakeState{gate: gate}
		}
		return fakeState{}
	}
	r.barrier(0, false)
	for i := 1; i <= 5; i++ {
		r.barrier(i, false)
	}
	if !reflect.DeepEqual(r.captured, []int{0}) || r.stats.Deferred.Load() != 5 {
		t.Fatalf("with barrier 0's save in flight: captured %v, %d deferred; want [0] and 5", r.captured, r.stats.Deferred.Load())
	}
	if n := r.saves.CheckpointSaves.Load(); n != 0 {
		t.Fatalf("%d checkpoints on disk while the only save is parked", n)
	}
	close(gate)
	// Ingest runs on; some barrier soon finds the saver idle.
	i := 6
	for ; len(r.captured) == 1; i++ {
		if i == len(r.ends) {
			t.Fatal("no barrier found the saver idle after its save was released")
		}
		time.Sleep(time.Millisecond)
		r.barrier(i, false)
	}
	i--
	if r.captured[1] != i || r.stats.Deferred.Load() != int64(i-1) {
		t.Fatalf("captured %v with %d deferred: want barrier %d — the first to find the saver idle — captured itself, every one before it deferred",
			r.captured, r.stats.Deferred.Load(), i)
	}
	r.sv.Wait()
	r.newestIs(i)
	if n := r.saves.CheckpointSaves.Load(); n != 2 {
		t.Errorf("%d checkpoints saved, want 2", n)
	}

	// One minute after the captured barrier nothing is due; the deferred
	// ones left no debt behind.
	r.ends[i+1] = r.ends[i].Add(time.Minute)
	r.barrier(i+1, false)
	r.barrier(i+2, false)
	if want := []int{0, i, i + 2}; !reflect.DeepEqual(r.captured, want) {
		t.Errorf("captured %v, want %v", r.captured, want)
	}
}

// TestSaverFailureStaysDue: a checkpoint whose capture or save failed has
// not happened. It used to push the next one a whole interval out; now the
// next idle barrier retries — one minute later here, far inside the
// interval — and each failure is logged once.
func TestSaverFailureStaysDue(t *testing.T) {
	r := newSaverRig(t, 15*time.Minute, time.Time{}, 20, 1, 1, 1, 1)
	r.state = func(i int) fakeState {
		if i == 0 {
			return fakeState{fail: errors.New("disk full")}
		}
		return fakeState{}
	}
	r.barrier(0, false) // captured; the save fails
	r.sv.Wait()
	if n := r.saves.CheckpointSaves.Load(); n != 0 {
		t.Fatalf("%d checkpoints on disk after a failed save", n)
	}
	r.barrier(1, false) // retried
	r.sv.Wait()
	r.newestIs(1)
	r.barrier(2, false) // not due: barrier 1's checkpoint is a minute old
	r.barrier(3, false)
	r.barrier(4, false)
	if want := []int{0, 1}; !reflect.DeepEqual(r.captured, want) {
		t.Fatalf("captured %v, want %v", r.captured, want)
	}

	// A capture that fails is retried at the next barrier as well.
	r2 := newSaverRig(t, 15*time.Minute, time.Time{}, 20, 20, 1)
	r2.captureErr = func(i int) error {
		if i == 1 {
			return errors.New("cursor diverged")
		}
		return nil
	}
	for i := range r2.ends {
		r2.barrier(i, false)
		r2.sv.Wait()
	}
	if want := []int{0, 2}; !reflect.DeepEqual(r2.captured, want) {
		t.Fatalf("captured %v, want %v", r2.captured, want)
	}
	r2.newestIs(2)

	if got := strings.Count(r.log.String(), "checkpoint save failed"); got != 1 || !strings.Contains(r.log.String(), "disk full") {
		t.Errorf("the failed save was logged %d times: %q", got, r.log.String())
	}
	if got := strings.Count(r2.log.String(), "checkpoint skipped"); got != 1 || !strings.Contains(r2.log.String(), "cursor diverged") {
		t.Errorf("the failed capture was logged %d times: %q", got, r2.log.String())
	}
}

// TestSaverEndOfSourceWaits: once the source has ended there is no later
// barrier for a due checkpoint to move to, so Barrier waits for the save in
// flight and captures; Wait and Close then see the last save to disk.
func TestSaverEndOfSourceWaits(t *testing.T) {
	r := newSaverRig(t, 15*time.Minute, time.Time{}, 20, 20, 20)
	gates := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	r.state = func(i int) fakeState { return fakeState{gate: gates[i]} }
	r.barrier(0, false)
	time.AfterFunc(20*time.Millisecond, func() { close(gates[0]) })
	savedBefore := int64(-1)
	r.captureErr = func(int) error {
		savedBefore = r.saves.CheckpointSaves.Load()
		return nil
	}
	r.barrier(1, true)
	if want := []int{0, 1}; !reflect.DeepEqual(r.captured, want) || savedBefore != 1 || r.stats.Deferred.Load() != 0 {
		t.Fatalf("captured %v, %d saved when barrier 1 was captured, %d deferred: want %v, 1 and 0",
			r.captured, savedBefore, r.stats.Deferred.Load(), want)
	}
	time.AfterFunc(20*time.Millisecond, func() { close(gates[1]) })
	r.sv.Wait()
	r.newestIs(1)

	r.barrier(2, true)
	time.AfterFunc(20*time.Millisecond, func() { close(gates[2]) })
	r.closeSaver() // waits for barrier 2's save
	r.newestIs(2)
}
