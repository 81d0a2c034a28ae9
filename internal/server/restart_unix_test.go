//go:build unix

package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/live"
	"kepler/internal/metrics"
	"kepler/internal/store"
)

// TestRestartSaverKilledMidSave is restart equivalence for the one instant
// the checkpoint saver adds: a SIGKILL while a save is inside its file I/O.
// The save is parked there for real — a FIFO squatting on its temp path
// blocks open(2) — while ingest runs on for a day of stream, deferring the
// checkpoints that come due; then the process dies. What it leaves is the
// disk as of that instant: the WAL up to the last bin close, the two
// generations saved before, and a torn .tmp. The next boot must sweep the
// .tmp, resume from the newest generation that finished, and publish
// byte-for-byte the uninterrupted run's event sequence.
func TestRestartSaverKilledMidSave(t *testing.T) {
	if err := syscall.Mkfifo(filepath.Join(t.TempDir(), "probe"), 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	stack, _, res, cfg, start := restartScenario(t)
	const ckptInterval = 6 * time.Hour
	parkFrom := start.Add(7 * 24 * time.Hour)

	refEvents := uninterruptedEvents(t, stack, res, cfg)

	// ---- Phase 1: the save of the first checkpoint due a week in never
	// gets past open(2); the daemon is killed a day of stream later.
	dir := t.TempDir()
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var persisted []events.Event
	bus1 := events.New(nil, events.WithSink(func(ev events.Event) {
		if err := st1.Append(ev); err != nil {
			t.Errorf("phase 1 append: %v", err)
		}
		persisted = append(persisted, ev)
	}))
	eng1 := stack.NewEngine(cfg, 0)
	stats1 := &metrics.CheckpointStats{}
	var saverLog bytes.Buffer
	sv1 := store.NewCheckpointSaver(st1, ckptInterval, time.Time{}, stats1, slog.New(slog.NewTextHandler(&saverLog, nil)))
	var (
		fifo      string // the parked save's temp path
		finished  uint64 // event sequence of the newest checkpoint whose save finished
		lastDue   time.Time
		parkedSeq uint64
	)
	checkpoint := saverHook(t, sv1, eng1, bus1, nil, nil)
	hooks1 := events.EngineHooks(bus1)
	publishBin := hooks1.BinClosed
	hooks1.BinClosed = func(end time.Time) {
		publishBin(end)
		due := lastDue.IsZero() || end.Sub(lastDue) >= ckptInterval
		switch {
		case fifo != "" || !due:
			checkpoint(end) // defers, or has nothing to do
		case end.Before(parkFrom):
			checkpoint(end)
			sv1.Wait() // the disk keeps up: the synchronous schedule
			finished, lastDue = bus1.Seq(), end
		default:
			parkedSeq = bus1.Seq()
			fifo = filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt.tmp", parkedSeq))
			if err := syscall.Mkfifo(fifo, 0o644); err != nil {
				t.Errorf("mkfifo: %v", err)
			}
			checkpoint(end)
		}
	}
	eng1.SetHooks(hooks1)
	cut := &cutSource{src: live.Adapt(bgpstream.NewSliceSource(res.Records)), cutoff: start.Add(8 * 24 * time.Hour)}
	if _, err := live.Pump(context.Background(), cut, eng1); err != context.Canceled {
		t.Fatalf("phase 1 pump error = %v, want context.Canceled", err)
	}
	bus1.Close()
	eng1.Close()
	if fifo == "" || finished == 0 || stats1.Deferred.Load() == 0 {
		t.Fatalf("parked %q, last finished checkpoint at seq %d, %d barriers deferred: the scenario needs a finished checkpoint, a parked one and deferrals behind it",
			fifo, finished, stats1.Deferred.Load())
	}

	// SIGKILL: st1 is abandoned, and the disk as the kill left it is dir2 —
	// with the half-written temp file a FIFO cannot stand in for.
	dir2 := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b := []byte("\x00\x0a\xfe\xee half a checkpoint frame")
		if e.Type().IsRegular() {
			if b, err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		} else if filepath.Join(dir, e.Name()) != fifo {
			t.Fatalf("unexpected %v in the data dir", e)
		}
		if err := os.WriteFile(filepath.Join(dir2, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The process being a test, its saver has to be let go: drain the FIFO.
	// fsync on a pipe fails, so the parked save never becomes a checkpoint.
	rd, err := os.OpenFile(fifo, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, rd)
	sv1.Close()
	rd.Close()
	if !strings.Contains(saverLog.String(), "checkpoint save failed") {
		t.Errorf("the save through the FIFO did not fail: %q", saverLog.String())
	}

	// ---- Phase 2: boot on what the kill left.
	stats2 := &metrics.StoreStats{}
	st2, err := store.Open(store.Options{Dir: dir2, Metrics: stats2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if tmps, _ := filepath.Glob(filepath.Join(dir2, "*.tmp")); len(tmps) != 0 {
		t.Errorf("boot left the torn checkpoint temp file: %v", tmps)
	}
	hist := st2.History()
	if got := uint64(len(persisted)); got != hist.LastSeq {
		t.Fatalf("durable horizon %d but phase 1 published %d events", hist.LastSeq, got)
	}
	var engCkpt *core.Checkpoint
	ck := st2.LoadCheckpoint(func(c *store.Checkpoint) error {
		if c.EventSeq > hist.LastSeq {
			return fmt.Errorf("checkpoint ahead of durable horizon")
		}
		ec, err := core.DecodeCheckpoint(c.Engine)
		engCkpt = ec
		return err
	})
	if ck == nil || ck.EventSeq != finished || ck.EventSeq >= parkedSeq || stats2.CheckpointsDiscarded.Load() != 0 {
		t.Fatalf("resumed from %+v with %d segments discarded: want the last checkpoint whose save finished (seq %d, before the parked one at %d)",
			ck, stats2.CheckpointsDiscarded.Load(), finished, parkedSeq)
	}
	var evs2 []events.Event
	bus2 := events.New(nil,
		events.WithStartSeq(hist.LastSeq),
		events.WithSink(func(ev events.Event) {
			if err := st2.Append(ev); err != nil {
				t.Errorf("phase 2 append: %v", err)
			}
			evs2 = append(evs2, ev)
		}))
	eng2 := stack.NewEngine(cfg, 0)
	defer eng2.Close()
	if err := eng2.RestoreFrom(engCkpt); err != nil {
		t.Fatal(err)
	}
	eng2.SetHooks(events.GateHooks(events.EngineHooks(bus2), hist.LastSeq-ck.EventSeq))
	if _, err := live.Pump(context.Background(), live.Adapt(bgpstream.NewSliceSource(res.Records[ck.Records:])), eng2); err != nil {
		t.Fatal(err)
	}
	bus2.Close()

	all := append(append([]events.Event{}, persisted...), evs2...)
	if len(all) != len(refEvents) {
		t.Fatalf("restarted run published %d events, uninterrupted run %d", len(all), len(refEvents))
	}
	for i := range all {
		got, want := marshalEvent(t, all[i]), marshalEvent(t, refEvents[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d diverges across the restart:\n got  %s\n want %s", i, got, want)
		}
	}
}
