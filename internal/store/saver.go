package store

import (
	"log/slog"
	"time"

	"kepler/internal/metrics"
	"kepler/internal/slogx"
)

// EngineState is a captured engine checkpoint that has not been encoded
// yet. It must stay valid, and AppendEncode must be safe to call from
// another goroutine, however far the pipeline it was captured from runs on:
// *core.Checkpoint is one.
type EngineState interface {
	AppendEncode(b []byte) ([]byte, error)
}

// CheckpointCapture is a checkpoint as the ingest goroutine leaves it at a
// bin barrier: the envelope filled in with what only the barrier knows
// (EventSeq, Records, Window, WindowPos; the saver stamps BinEnd), the
// engine state captured but not encoded. The saver encodes State into
// Engine.
type CheckpointCapture struct {
	Checkpoint
	State EngineState
}

// CheckpointSaver takes the disk out of the ingest goroutine's bin close.
// It owns one goroutine and at most one save in flight: a barrier captures
// (cheap, and the only part that must be barrier-consistent), the goroutine
// encodes — into one buffer it reuses — and calls Store.SaveCheckpoint.
//
// One rule decides when. A checkpoint is due at a barrier once interval of
// stream time has passed since the barrier of the last one captured. A due
// checkpoint that finds a save in flight is not queued and does not wait:
// it stays due, and is captured at the first later barrier that finds the
// saver idle, from that barrier's state. So ingest never blocks on the
// disk, interval is a floor on the spacing, and a restart re-ingests at
// most one interval of stream plus what ingest covered during one save;
// when saves finish between barriers — any live feed — every due barrier is
// captured, exactly the schedule of saving synchronously. A capture or save
// that fails leaves the checkpoint due as well.
//
// Once the source has ended there is no later barrier to move to, so a due
// checkpoint waits for the save in flight instead (Barrier's ended), and
// Wait after the last barrier puts the last capture on disk.
//
// Barrier, Wait and Close are for the ingest goroutine: they must not be
// called concurrently with each other.
type CheckpointSaver struct {
	st       *Store
	interval time.Duration
	stats    *metrics.CheckpointStats
	log      *slog.Logger

	last     time.Time // barrier of the newest capture handed over; zero when the next barrier is due whatever its time
	inFlight bool

	jobs   chan *CheckpointCapture // cap 1: a hand-over never waits for the goroutine to come round
	done   chan error              // cap 1: the goroutine never waits for a barrier to collect
	exited chan struct{}
}

// NewCheckpointSaver starts the saver's goroutine. last is the barrier of
// the checkpoint this process resumed from (zero without one: the first
// barrier is due). stats and log may be nil.
func NewCheckpointSaver(st *Store, interval time.Duration, last time.Time, stats *metrics.CheckpointStats, log *slog.Logger) *CheckpointSaver {
	if stats == nil {
		stats = &metrics.CheckpointStats{}
	}
	if log == nil {
		log = slogx.Discard()
	}
	s := &CheckpointSaver{
		st: st, interval: interval, stats: stats, log: log, last: last,
		jobs: make(chan *CheckpointCapture, 1), done: make(chan error, 1), exited: make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *CheckpointSaver) run() {
	defer close(s.exited)
	var buf []byte
	for c := range s.jobs {
		t0 := time.Now()
		var err error
		if buf, err = c.State.AppendEncode(buf[:0]); err == nil {
			c.Engine = buf
			err = s.st.SaveCheckpoint(&c.Checkpoint)
		}
		s.stats.Save.Observe(time.Since(t0))
		s.done <- err
	}
}

// Barrier is called at every bin barrier (from a BinClosed hook, after the
// barrier's events were appended) while checkpoints may be saved. If one is
// due and the saver idle it runs capture and hands the result to the
// goroutine; if the saver is busy the checkpoint stays due — unless ended
// says the source has hit its end, when Barrier waits for the save in
// flight first. capture failing (logged) leaves the checkpoint due too.
func (s *CheckpointSaver) Barrier(end time.Time, ended bool, capture func() (*CheckpointCapture, error)) {
	if s.inFlight {
		select {
		case err := <-s.done:
			s.finish(err)
		default:
		}
	}
	if !s.last.IsZero() && end.Sub(s.last) < s.interval {
		return
	}
	if s.inFlight && !ended {
		s.stats.Deferred.Add(1)
		return
	}
	t0 := time.Now()
	s.Wait()
	c, err := capture()
	s.stats.Ingest.Observe(time.Since(t0))
	if err != nil {
		s.log.Warn("checkpoint skipped", "bin", end, "error", err)
		return
	}
	c.BinEnd = end
	s.last = end
	s.inFlight = true
	s.jobs <- c
}

// Wait returns once no save is in flight: what the ingest goroutine calls
// when the source is done, before saying so, and before the store closes.
func (s *CheckpointSaver) Wait() {
	if s.inFlight {
		s.finish(<-s.done)
	}
}

func (s *CheckpointSaver) finish(err error) {
	s.inFlight = false
	if err != nil {
		s.log.Error("checkpoint save failed", "bin", s.last, "error", err)
		s.last = time.Time{} // still due: the next idle barrier retries
	}
}

// Close waits for the save in flight and stops the goroutine. The store
// must stay open until it returns.
func (s *CheckpointSaver) Close() {
	s.Wait()
	close(s.jobs)
	<-s.exited
}
