package store

import (
	"bufio"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/metrics"
)

// failWriter fails every write, as a full or vanished disk would.
type failWriter struct{}

var errDiskGone = errors.New("disk gone")

func (failWriter) Write([]byte) (int, error) { return 0, errDiskGone }

// dirState maps every file of dir to its size.
func dirState(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]int64, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = fi.Size()
	}
	return m
}

// historyOf is the flat-slice reference: the resolved outages and
// incidents evs carry, in order.
func historyOf(evs []events.Event) ([]core.Outage, []core.Incident) {
	var outs []core.Outage
	var incs []core.Incident
	for _, ev := range evs {
		switch {
		case ev.Outage != nil:
			outs = append(outs, *ev.Outage)
		case ev.Incident != nil:
			incs = append(incs, *ev.Incident)
		}
	}
	return outs, incs
}

// TestFailedAppendStopsWriting fails the WAL mid-history: the store returns
// the failure once, serves the persisted prefix plus everything appended
// after it across every window shape, writes and compacts nothing more, and
// a reopen recovers exactly the prefix persisted before the failure.
func TestFailedAppendStopsWriting(t *testing.T) {
	dir := t.TempDir()
	m := &metrics.StoreStats{}
	// CompactBytes 1 compacts at every bin close, so the persisted prefix
	// is sealed in segments and the post-failure entries sit in the tail.
	s := open(t, Options{Dir: dir, CompactBytes: 1, Metrics: m})
	const persisted, after = 5, 3
	evs := mkEvents(0, persisted+after)  // four events per bin, the last a bin close
	appendAll(t, s, evs[:4*persisted+1]) // through the next bin's opened event
	before, compactions := dirState(t, dir), m.Compactions.Load()

	// A buffer smaller than one frame: the next append's own write fails.
	s.mu.Lock()
	s.bw = bufio.NewWriterSize(failWriter{}, 16)
	s.mu.Unlock()
	var failed []uint64
	for _, ev := range evs[4*persisted+1:] {
		if err := s.Append(ev); err != nil {
			if !errors.Is(err, errDiskGone) {
				t.Fatalf("append seq %d: %v, want the write failure", ev.Seq, err)
			}
			failed = append(failed, ev.Seq)
		}
	}
	// The incident's write fails; it is served all the same (below).
	if want := []uint64{4*persisted + 2}; !reflect.DeepEqual(failed, want) {
		t.Fatalf("appends failed at seqs %v, want %v only", failed, want)
	}

	allOuts, allIncs := historyOf(evs)
	total := len(allOuts)
	for start := 0; start <= total+1; start++ {
		for count := 0; count <= total+2; count++ {
			lo, hi := min(start, total), min(start+count, total)
			gotOuts, err := s.ReadOutages(start, count)
			if err != nil {
				t.Fatalf("ReadOutages(%d,%d): %v", start, count, err)
			}
			if len(gotOuts) != hi-lo || (hi > lo && !reflect.DeepEqual(gotOuts, allOuts[lo:hi])) {
				t.Fatalf("ReadOutages(%d,%d) = %d entries, want %d", start, count, len(gotOuts), hi-lo)
			}
			gotIncs, err := s.ReadIncidents(start, count)
			if err != nil {
				t.Fatalf("ReadIncidents(%d,%d): %v", start, count, err)
			}
			if len(gotIncs) != hi-lo || (hi > lo && !reflect.DeepEqual(gotIncs, allIncs[lo:hi])) {
				t.Fatalf("ReadIncidents(%d,%d) = %d entries, want %d", start, count, len(gotIncs), hi-lo)
			}
		}
	}
	if _, err := s.ReadOutages(-3, 4); err == nil {
		t.Error("ReadOutages with a negative start succeeded")
	}
	if res, incs, _, _ := s.Served(); res != total || incs != total {
		t.Errorf("Served totals = %d/%d, want %d/%d", res, incs, total, total)
	}

	if err := s.Flush(); err != nil {
		t.Errorf("Flush after the failure: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after the failure: %v", err)
	}
	if got := dirState(t, dir); !reflect.DeepEqual(got, before) {
		t.Errorf("data dir changed after the failure:\n got  %v\n want %v", got, before)
	}
	if got := m.Compactions.Load(); got != compactions {
		t.Errorf("compactions %d after the failure, want %d", got, compactions)
	}

	r := open(t, Options{Dir: dir})
	defer r.Close()
	h := r.History()
	if h.LastSeq != 4*persisted {
		t.Errorf("reopened at seq %d, want %d", h.LastSeq, 4*persisted)
	}
	if !reflect.DeepEqual(h.Resolved, allOuts[:persisted]) || !reflect.DeepEqual(h.Incidents, allIncs[:persisted]) {
		t.Errorf("reopened history = %d outages and %d incidents, want the %d persisted before the failure",
			len(h.Resolved), len(h.Incidents), persisted)
	}
}

// TestMemoryStore opens a store without a Dir: it serves what was appended
// and writes nothing, checkpoints included.
func TestMemoryStore(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cwd := dirState(t, wd)
	s := open(t, Options{})
	evs := mkEvents(0, 3)
	appendAll(t, s, evs)
	outs, incs := historyOf(evs)
	if got, err := s.ReadOutages(0, 10); err != nil || !reflect.DeepEqual(got, outs) {
		t.Errorf("ReadOutages = %d entries (%v), want %d", len(got), err, len(outs))
	}
	if got, err := s.ReadIncidents(1, 10); err != nil || !reflect.DeepEqual(got, incs[1:]) {
		t.Errorf("ReadIncidents = %d entries (%v), want %d", len(got), err, len(incs)-1)
	}
	if sum := s.Summary(); sum.LastSeq != uint64(len(evs)) || sum.ResolvedTotal != 3 || sum.IncidentTotal != 3 {
		t.Errorf("Summary = seq %d, %d outages, %d incidents", sum.LastSeq, sum.ResolvedTotal, sum.IncidentTotal)
	}
	if err := s.SaveCheckpoint(&Checkpoint{EventSeq: uint64(len(evs)), Engine: []byte("engine")}); err == nil {
		t.Error("SaveCheckpoint without a Dir succeeded")
	}
	if ck := s.LoadCheckpoint(nil); ck != nil {
		t.Errorf("LoadCheckpoint without a Dir = %+v", ck)
	}
	if err := s.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := s.Append(events.Event{Seq: uint64(len(evs)) + 1, Kind: events.KindBinClosed}); err == nil {
		t.Error("append after Close succeeded")
	}
	if got := dirState(t, wd); !reflect.DeepEqual(got, cwd) {
		t.Errorf("working directory changed:\n got  %v\n want %v", got, cwd)
	}
}

// TestServedTracesAreACopy takes the traces Served returns, then resolves
// and traces enough outages to realign the retention window and to drop
// from it — both rewrite the store's trace array in place — and checks the
// earlier result did not change.
func TestServedTracesAreACopy(t *testing.T) {
	s := open(t, Options{TraceCap: 4})
	defer s.Close()
	first := mkTracedEvents(0, 4)
	appendAll(t, s, first)
	_, _, got, base := s.Served()
	want := append([]core.OutageTrace(nil), got...)
	if len(got) != 4 || base != 0 {
		t.Fatalf("traces = %d (base %d), want 4 (base 0)", len(got), base)
	}

	seq := uint64(len(first))
	plain := mkEvents(seq, 1) // an untraced outage breaks the alignment
	appendAll(t, s, plain)
	seq += uint64(len(plain))
	later := mkTracedEvents(seq, 6) // realign, fill, then drop 2
	for _, ev := range later {
		if ev.Trace != nil {
			ev.Trace.Merged = 1 // unlike every earlier trace
		}
	}
	appendAll(t, s, later)
	if !reflect.DeepEqual(got, want) {
		t.Error("traces returned by Served changed under later appends")
	}
	res, _, now, base := s.Served()
	if res != 11 || len(now) != 4 || base != 7 {
		t.Errorf("after the appends: %d outages, traces = %d (base %d), want 11, 4 (base 7)", res, len(now), base)
	}
}

// TestMemoryStoreReadsBesideAppends pages a memory store's history from
// several goroutines while bins are appended: every read inside the totals
// Served reported returns all of them, as a published snapshot relies on.
// Run with -race.
func TestMemoryStoreReadsBesideAppends(t *testing.T) {
	s := open(t, Options{})
	defer s.Close()
	evs := mkEvents(0, 200)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, incs, _, _ := s.Served()
				outs, err := s.ReadOutages(0, res)
				if err != nil || len(outs) != res || (res > 0 && outs[res-1].PoP.ID != uint32(res)) {
					t.Errorf("ReadOutages(0, %d) = %d entries, %v", res, len(outs), err)
					return
				}
				if got, err := s.ReadIncidents(incs/2, incs-incs/2); err != nil || len(got) != incs-incs/2 {
					t.Errorf("ReadIncidents(%d, %d) = %d entries, %v", incs/2, incs-incs/2, len(got), err)
					return
				}
			}
		}()
	}
	appendAll(t, s, evs)
	close(stop)
	wg.Wait()
}
