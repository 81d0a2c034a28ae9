package live

import (
	"errors"
	"sync"

	"kepler/internal/mrt"
)

// Read-ahead sizing, from a sweep of keplerd on the benchmark's
// rib-backfill archive (2 cores): more or larger batches bought no
// throughput and raised peak RSS.
const (
	aheadBatch = 256 // records per batch
	aheadDepth = 2   // decoded batches queued ahead of the reader
)

// errReadAheadClosed is what ReadAhead.Next returns once Close has stopped
// the stage before its source ended. It is not io.EOF: a stopped stage is
// not the end of the stream, which Pump would flush.
var errReadAheadClosed = errors.New("live: read-ahead closed")

// ReadAhead decodes a batch source on a goroutine of its own, at most
// aheadDepth batches of aheadBatch records ahead of its reader, so that
// decoding an archive overlaps with ingesting it. It is itself a batch
// source: a Replayer, Tracked cursors and Seek sit on top of it unchanged.
// Records come out in source order, and a source error (io.EOF at the end)
// comes out after the records read before it, at the same record offset as
// reading the source directly. A record is the reader's to keep, as the
// source's records are.
//
// The goroutine starts with NewReadAhead and exits at the source's end, at
// its first error, or when Close stops it. Next and Close belong to one
// goroutine, or Close comes after the last Next.
type ReadAhead struct {
	src  batchSource
	full chan decoded
	free chan []*mrt.Record
	stop chan struct{}
	done chan struct{}
	once sync.Once

	// The reader's side: the batch being read and the error that follows
	// it.
	cur []*mrt.Record
	pos int
	err error
}

// decoded is one batch: records in source order, then err if
// the source failed or ended after them.
type decoded struct {
	recs []*mrt.Record
	err  error
}

// NewReadAhead starts decoding src ahead of the returned source.
func NewReadAhead(src interface {
	Next() (*mrt.Record, error)
}) *ReadAhead {
	a := &ReadAhead{
		src:  src,
		full: make(chan decoded, aheadDepth),
		// Every batch in flight fits: queued, being decoded, being read.
		free: make(chan []*mrt.Record, aheadDepth+2),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.run()
	return a
}

// run decodes batches until the source ends or fails, or Close.
func (a *ReadAhead) run() {
	defer close(a.done)
	defer close(a.full)
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		var recs []*mrt.Record
		select {
		case recs = <-a.free:
		default:
			recs = make([]*mrt.Record, 0, aheadBatch)
		}
		var err error
		for len(recs) < aheadBatch {
			var rec *mrt.Record
			if rec, err = a.src.Next(); err != nil {
				break
			}
			recs = append(recs, rec)
		}
		select {
		case a.full <- decoded{recs, err}:
		case <-a.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// Next returns the next record, or the source's error once every record
// read before it has been returned. After Close, once the batches decoded
// before it are read, it returns errReadAheadClosed, unless the source had
// already ended.
func (a *ReadAhead) Next() (*mrt.Record, error) {
	for a.pos == len(a.cur) {
		if a.err != nil {
			return nil, a.err
		}
		if a.cur != nil {
			// Hand the read batch back without keeping its records alive.
			clear(a.cur)
			select {
			case a.free <- a.cur[:0]:
			default:
			}
		}
		b, ok := <-a.full
		if !ok {
			b.err = errReadAheadClosed
		}
		a.cur, a.pos, a.err = b.recs, 0, b.err
	}
	rec := a.cur[a.pos]
	a.pos++
	return rec, nil
}

// Close stops the decoding goroutine and waits for it to exit. It is safe
// to call more than once. It waits for a source read in progress, so a
// source that can block for good must be unblocked first.
func (a *ReadAhead) Close() {
	a.once.Do(func() { close(a.stop) })
	<-a.done
}
