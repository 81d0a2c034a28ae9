// Package live turns the batch detection engine into a continuously-fed
// service: it defines the context-aware Source interface for streamed MRT
// records and the Pump that drives a core.Engine from one. Two sources
// ship: a rate-controlled archive Replayer (replay at N× real time, or as
// fast as the hardware allows) and a Synthetic world-driven generator that
// renders rolling scenario windows for soak testing. Both feed the engine
// through its existing record fan-out; the serving layer observes results
// via the engine's lifecycle hooks (internal/events) rather than through
// the pump's return value.
package live

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"kepler/internal/core"
	"kepler/internal/mrt"
)

// Source yields MRT records in non-decreasing time order, blocking until
// the next record is due (paced sources) or available (generated sources).
// Next returns io.EOF at stream end and ctx.Err() if cancelled while
// blocked — the hook that makes daemon shutdown prompt even mid-pacing.
type Source interface {
	Next(ctx context.Context) (*mrt.Record, error)
}

// Cursor is a resumable source position: the next Next after a Seek to it
// returns record offset Records of the stream. Window/WindowPos locate the
// same position for window-rendering sources (Synthetic), which resume by
// re-rendering one deterministic window rather than replaying everything
// before it; archive sources ignore them.
type Cursor struct {
	Records   uint64
	Window    int
	WindowPos int
}

// Resumable is a Source that can report and restore its stream position —
// the hook checkpoint recovery uses to re-ingest only the record suffix
// past the newest engine checkpoint instead of starting at record zero.
type Resumable interface {
	Source
	// Cursor returns the position of the next unread record.
	Cursor() Cursor
	// Seek fast-forwards the source to a cursor previously obtained from
	// Cursor (of this source type, over the same underlying stream). It
	// must be called before the first Next.
	Seek(ctx context.Context, c Cursor) error
}

// Tracked wraps a Resumable source, additionally remembering the cursor of
// the most recently returned record. A checkpoint taken from inside a
// BinClosed hook runs mid-Process: the in-flight record's effects are not
// part of the checkpoint, so recovery must resume at that record — which is
// exactly LastCursor.
type Tracked struct {
	Resumable
	last  Cursor
	ended bool
}

// Track wraps src.
func Track(src Resumable) *Tracked { return &Tracked{Resumable: src} }

// Next implements Source.
func (t *Tracked) Next(ctx context.Context) (*mrt.Record, error) {
	c := t.Resumable.Cursor()
	rec, err := t.Resumable.Next(ctx)
	if err == nil {
		t.last = c
	} else if errors.Is(err, io.EOF) {
		t.ended = true
	}
	return rec, err
}

// Ended reports whether Next has hit the end of the stream: the bin closes
// of the engine flush that follows are the last there will be, so a
// checkpoint due at one cannot move to a later barrier.
func (t *Tracked) Ended() bool { return t.ended }

// LastCursor returns the cursor positioned at the most recently returned
// record (so a Seek there makes Next return it again). Zero until the
// first successful Next.
func (t *Tracked) LastCursor() Cursor { return t.last }

// batchSource is the subset of bgpstream.Source the adapters accept: any
// blocking-free, already-ordered record iterator (mrt.Reader,
// bgpstream.SliceSource, Merger, Stream, ...).
type batchSource interface {
	Next() (*mrt.Record, error)
}

// adapted lifts a batch source into a context-aware one. The underlying
// Next is assumed non-blocking (file reads), so cancellation is only
// checked between records.
type adapted struct{ src batchSource }

// Adapt wraps a batch bgpstream-style source as a live Source.
func Adapt(src interface {
	Next() (*mrt.Record, error)
}) Source {
	return adapted{src: src}
}

func (a adapted) Next(ctx context.Context) (*mrt.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.src.Next()
}

// abortHook wraps a source so fn runs — once, on the consuming goroutine —
// the moment the source fails with anything other than clean end-of-stream.
type abortHook struct {
	src   Source
	fn    func()
	fired bool
}

// OnAbort returns a source that invokes fn when src's Next first returns a
// non-EOF error (cancellation, source failure), before the error reaches
// the caller. Pump flushes the engine after any exit, and flush emits
// resolution events for outages that are still in progress; on clean EOF
// those are real results (the stream is over), but on a daemon shutdown
// they are artifacts of stopping. A store-backed daemon therefore hooks
// OnAbort to mute its lifecycle hooks (events.MuteHooks): since fn runs on
// the pump goroutine before the flush hooks do, the artifacts are neither
// persisted nor published, so the durable history and the bus sequence
// keep only events a deterministic re-ingestion will regenerate — which is
// what makes restart recovery byte-for-byte equivalent to an uninterrupted
// run, and Last-Event-ID resume exactly-once across it.
func OnAbort(src Source, fn func()) Source {
	return &abortHook{src: src, fn: fn}
}

func (a *abortHook) Next(ctx context.Context) (*mrt.Record, error) {
	rec, err := a.src.Next(ctx)
	if err != nil && !errors.Is(err, io.EOF) && !a.fired {
		a.fired = true
		a.fn()
	}
	return rec, err
}

// Replayer paces an archive against the wall clock: record timestamps are
// mapped onto real time at a configurable speedup, reproducing the arrival
// process the paper's live deployment saw from its collectors. Speed <= 0
// disables pacing (maximum-speed replay, the batch-equivalence mode).
type Replayer struct {
	src      batchSource
	speed    float64
	origin   time.Time // stream time of the first record
	wall0    time.Time // wall time the first record was released
	consumed uint64    // records returned so far (plus any skipped by Seek)

	// now and sleep are test seams; nil selects the real clock.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// NewReplayer wraps src with pacing. speed is the time-compression factor:
// 1 replays in real time, 60 replays one archive minute per wall second,
// <= 0 replays as fast as the source can be read.
func NewReplayer(src interface {
	Next() (*mrt.Record, error)
}, speed float64) *Replayer {
	return &Replayer{src: src, speed: speed}
}

func (r *Replayer) clock() func() time.Time {
	if r.now != nil {
		return r.now
	}
	// Wall clock by design: this paces the replay against real time; the
	// records it releases carry their own stream timestamps, which are all
	// detection ever sees (live is outside keplervet's walltime scope).
	return time.Now
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cursor implements Resumable.
func (r *Replayer) Cursor() Cursor { return Cursor{Records: r.consumed} }

// Seek implements Resumable: it reads and discards records up to the
// cursor's offset, without pacing — the skipped prefix was already
// processed by a previous run, so replay timing restarts at the first
// record actually delivered.
func (r *Replayer) Seek(ctx context.Context, c Cursor) error {
	for r.consumed < c.Records {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := r.src.Next(); err != nil {
			return fmt.Errorf("live: seek to record %d: %w after %d records (is this the archive the checkpoint was written against?)",
				c.Records, err, r.consumed)
		}
		r.consumed++
	}
	return nil
}

// Next implements Source: it reads the next record and blocks until its
// scheduled release instant.
func (r *Replayer) Next(ctx context.Context) (*mrt.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec, err := r.src.Next()
	if err != nil {
		return nil, err
	}
	r.consumed++
	if r.speed <= 0 {
		return rec, nil
	}
	if r.origin.IsZero() {
		r.origin = rec.Time
		r.wall0 = r.clock()()
		return rec, nil
	}
	due := r.wall0.Add(time.Duration(float64(rec.Time.Sub(r.origin)) / r.speed))
	if wait := due.Sub(r.clock()()); wait > 0 {
		doSleep := r.sleep
		if doSleep == nil {
			doSleep = sleepCtx
		}
		if err := doSleep(ctx, wait); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// PumpResult summarizes one Pump run.
type PumpResult struct {
	// Records consumed from the source.
	Records int
	// Last is the timestamp of the final record (zero if none arrived).
	Last time.Time
	// Outages completed during the run, including the shutdown flush —
	// exactly what the batch pipeline would have returned for the same
	// records.
	Outages []core.Outage
}

// Pump drives the engine from the source until EOF or context
// cancellation, then flushes open state as of the last record. The engine's
// hooks fire on this goroutine, so a daemon installs its event publication
// and snapshot refresh there and treats Pump as the whole ingest loop. The
// returned error is nil at EOF, the context error if cancelled, and the
// source error otherwise; the flush runs in every case.
func Pump(ctx context.Context, src Source, eng *core.Engine) (PumpResult, error) {
	var res PumpResult
	var runErr error
	for {
		rec, err := src.Next(ctx)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				runErr = err
			}
			break
		}
		res.Records++
		res.Last = rec.Time
		res.Outages = append(res.Outages, eng.Process(rec)...)
	}
	if !res.Last.IsZero() {
		res.Outages = append(res.Outages, eng.Flush(res.Last)...)
	}
	return res, runErr
}
