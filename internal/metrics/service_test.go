package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestIngestStatsConcurrentWriters drives every IngestStats counter from
// many goroutines while snapshots are taken concurrently — the engine's
// access pattern (ingest goroutine writing, HTTP stats endpoint reading),
// made harsher. Run with -race.
func TestIngestStatsConcurrentWriters(t *testing.T) {
	var s IngestStats
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Begin()
				s.Records.Add(1)
				s.Ops.Add(3)
				if i%100 == 0 {
					s.Bins.Add(1)
					s.BarrierNanos.Add(int64(time.Microsecond))
				}
			}
		}()
	}
	// Concurrent readers must never observe torn or negative state.
	var rg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				// Counters only grow; a reader must never observe a
				// negative or otherwise torn value. (Records/Ops are read
				// at different instants, so no cross-counter invariant is
				// safe to assert mid-run.)
				if snap.Records < 0 || snap.Ops < 0 || snap.Bins < 0 {
					t.Errorf("inconsistent snapshot: %+v", snap)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	snap := s.Snapshot()
	if snap.Records != writers*perWriter {
		t.Errorf("records = %d, want %d", snap.Records, writers*perWriter)
	}
	if snap.Ops != 3*writers*perWriter {
		t.Errorf("ops = %d, want %d", snap.Ops, 3*writers*perWriter)
	}
	if snap.Bins != writers*perWriter/100 {
		t.Errorf("bins = %d, want %d", snap.Bins, writers*perWriter/100)
	}
	if snap.RecordsPerSec <= 0 {
		t.Error("rate not computed after concurrent Begin")
	}
}

// TestServiceStatsConcurrentWriters exercises the HTTP/bus counters under
// concurrent update with interleaved snapshots.
func TestServiceStatsConcurrentWriters(t *testing.T) {
	var s ServiceStats
	var wg sync.WaitGroup
	const n = 500
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s.HTTPRequests.Add(1)
				if i%10 == 0 {
					s.HTTPErrors.Add(1)
				}
				s.SSEConnected.Add(1)
				s.SSEActive.Add(1)
				s.EventsPublished.Add(2)
				s.EventsDropped.Add(1)
				s.SSEActive.Add(-1)
				_ = s.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.HTTPRequests != 6*n || snap.HTTPErrors != 6*n/10 {
		t.Errorf("http counters = %d/%d", snap.HTTPRequests, snap.HTTPErrors)
	}
	if snap.SSEActive != 0 || snap.SSEConnected != 6*n {
		t.Errorf("sse counters = %d/%d", snap.SSEActive, snap.SSEConnected)
	}
	if snap.EventsPublished != 12*n || snap.EventsDropped != 6*n {
		t.Errorf("event counters = %d/%d", snap.EventsPublished, snap.EventsDropped)
	}
	if line := snap.String(); !strings.Contains(line, "http=3000") {
		t.Errorf("render = %q", line)
	}
}
