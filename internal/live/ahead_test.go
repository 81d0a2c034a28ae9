package live

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/communities"
	"kepler/internal/core"
	"kepler/internal/mrt"
)

// archive renders n records, one a second, as MRT bytes. Record i is a
// state message from peer AS i+1, so a record's offset can be read back
// from it.
func archive(t *testing.T, n int) []byte {
	t.Helper()
	recs := make([]*mrt.Record, n)
	for i := range recs {
		recs[i] = &mrt.Record{
			Time: base.Add(time.Duration(i) * time.Second), Kind: mrt.KindState, Collector: "rrc00",
			PeerAS: bgp.ASN(i + 1), OldState: mrt.StateIdle, NewState: mrt.StateEstablished,
		}
	}
	var buf bytes.Buffer
	if err := mrt.WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll reads src until its first error, returning the record offsets
// (peer AS - 1) and that error.
func readAll(src batchSource) ([]int, error) {
	var offs []int
	for {
		rec, err := src.Next()
		if err != nil {
			return offs, err
		}
		offs = append(offs, int(rec.PeerAS)-1)
	}
}

// settles fails the test unless the goroutine count returns to n.
func settles(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the read-ahead started", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadEOF: every record comes out once, in order, then io.EOF for
// good, and the stage's goroutine is gone without a Close, whatever the
// archive's length against the batch size.
func TestReadAheadEOF(t *testing.T) {
	for _, n := range []int{0, 1, aheadBatch - 1, aheadBatch, aheadBatch*aheadDepth + 3, 10 * aheadBatch} {
		g := runtime.NumGoroutine()
		a := NewReadAhead(mrt.NewReader(bytes.NewReader(archive(t, n))))
		offs, err := readAll(a)
		if err != io.EOF {
			t.Fatalf("%d records: err = %v, want EOF", n, err)
		}
		if len(offs) != n {
			t.Fatalf("%d records: read %d", n, len(offs))
		}
		for i, o := range offs {
			if o != i {
				t.Fatalf("%d records: record %d is record %d", n, i, o)
			}
		}
		if _, err := a.Next(); err != io.EOF {
			t.Fatalf("%d records: Next after EOF = %v, want EOF again", n, err)
		}
		settles(t, g)
		a.Close()
	}
}

// TestReadAheadTruncated: an archive cut mid-record fails at the same
// record offset, with the same error, as reading it directly.
func TestReadAheadTruncated(t *testing.T) {
	full := archive(t, 3*aheadBatch)
	for _, cut := range []int{len(full) / 3, len(full)/2 + 5, len(full) - 1} {
		g := runtime.NumGoroutine()
		wantOffs, wantErr := readAll(mrt.NewReader(bytes.NewReader(full[:cut])))
		if wantErr == io.EOF || wantErr == nil {
			t.Fatalf("cut at %d: the direct read did not fail (%v)", cut, wantErr)
		}
		a := NewReadAhead(mrt.NewReader(bytes.NewReader(full[:cut])))
		offs, err := readAll(a)
		if len(offs) != len(wantOffs) || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("cut at %d: %d records then %v, direct read %d then %v", cut, len(offs), err, len(wantOffs), wantErr)
		}
		if _, again := a.Next(); again != err {
			t.Fatalf("cut at %d: Next after the error = %v, want %v again", cut, again, err)
		}
		settles(t, g)
	}
}

// TestReadAheadClose: Close stops the stage before, during and after
// reading, Next then reports the stage closed, and no goroutine is left.
func TestReadAheadClose(t *testing.T) {
	arc := archive(t, 20*aheadBatch)
	for _, read := range []int{0, 1, aheadBatch + 7} {
		g := runtime.NumGoroutine()
		a := NewReadAhead(mrt.NewReader(bytes.NewReader(arc)))
		for i := 0; i < read; i++ {
			if _, err := a.Next(); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
		a.Close()
		settles(t, g)
		var err error
		for err == nil {
			_, err = a.Next()
		}
		if !errors.Is(err, errReadAheadClosed) {
			t.Fatalf("after %d records and Close: err = %v, want the stage closed", read, err)
		}
	}
}

// TestReadAheadPumpCancel runs the daemon's source stack, Tracked over a
// Replayer over the read-ahead, into an engine and cancels mid-archive:
// the pump stops at the cancelled record, and closing the stage leaves no
// goroutine behind.
func TestReadAheadPumpCancel(t *testing.T) {
	g := runtime.NumGoroutine()
	a := NewReadAhead(mrt.NewReader(bytes.NewReader(archive(t, 10*aheadBatch))))
	tracked := Track(NewReplayer(a, 0))
	ctx, cancel := context.WithCancel(context.Background())
	const stopAt = 3*aheadBatch + 11
	eng := core.New(core.DefaultConfig(), communities.New(), nil, nil)
	defer eng.Close()
	eng.SetHooks(core.Hooks{BinClosed: func(time.Time) {
		if tracked.Cursor().Records >= stopAt {
			cancel()
		}
	}})
	res, err := Pump(ctx, tracked, eng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if res.Records < stopAt || res.Records > stopAt+60 {
		t.Fatalf("pump consumed %d records, cancelled at %d", res.Records, stopAt)
	}
	if got := tracked.Cursor().Records; got != uint64(res.Records) {
		t.Fatalf("cursor at %d after %d records", got, res.Records)
	}
	a.Close()
	settles(t, g)
}

// TestReadAheadSeek: a Replayer over the read-ahead seeks to a cursor and
// resumes at exactly that record; a seek past the end fails.
func TestReadAheadSeek(t *testing.T) {
	arc := archive(t, 5*aheadBatch)
	for _, to := range []uint64{0, 1, aheadBatch, 3*aheadBatch + 5, 5 * aheadBatch} {
		g := runtime.NumGoroutine()
		a := NewReadAhead(mrt.NewReader(bytes.NewReader(arc)))
		r := NewReplayer(a, 0)
		if err := r.Seek(context.Background(), Cursor{Records: to}); err != nil {
			t.Fatalf("seek to %d: %v", to, err)
		}
		rec, err := r.Next(context.Background())
		switch {
		case to == 5*aheadBatch:
			if err != io.EOF {
				t.Fatalf("seek to the end: Next = %v, want EOF", err)
			}
		case err != nil:
			t.Fatalf("seek to %d: %v", to, err)
		case uint64(rec.PeerAS)-1 != to:
			t.Fatalf("seek to %d: next record is %d", to, rec.PeerAS-1)
		}
		a.Close()
		settles(t, g)
	}
	a := NewReadAhead(mrt.NewReader(bytes.NewReader(arc)))
	defer a.Close()
	if err := NewReplayer(a, 0).Seek(context.Background(), Cursor{Records: 5*aheadBatch + 1}); !errors.Is(err, io.EOF) {
		t.Fatalf("seek past the end: %v, want EOF", err)
	}
}
