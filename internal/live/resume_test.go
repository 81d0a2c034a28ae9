package live

import (
	"context"
	"io"
	"testing"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/mrt"
)

// drain reads a source to EOF, returning the records.
func drain(t *testing.T, src Source) []*mrt.Record {
	t.Helper()
	var out []*mrt.Record
	for {
		rec, err := src.Next(context.Background())
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// TestReplayerSeek pins the archive resume path: a seek to record offset N
// delivers exactly the suffix from N, unpaced for the skipped prefix, and a
// seek past the archive end is a descriptive error, not a silent EOF.
func TestReplayerSeek(t *testing.T) {
	recs := mkRecs(10, time.Minute)
	r := NewReplayer(bgpstream.NewSliceSource(recs), 0)
	if got := r.Cursor(); got != (Cursor{}) {
		t.Fatalf("fresh cursor = %+v", got)
	}
	if err := r.Seek(context.Background(), Cursor{Records: 7}); err != nil {
		t.Fatal(err)
	}
	if got := r.Cursor(); got.Records != 7 {
		t.Fatalf("cursor after seek = %+v", got)
	}
	rest := drain(t, r)
	if len(rest) != 3 || !rest[0].Time.Equal(recs[7].Time) {
		t.Fatalf("suffix = %d records starting %v, want 3 from %v", len(rest), rest[0].Time, recs[7].Time)
	}
	if got := r.Cursor(); got.Records != 10 {
		t.Fatalf("cursor after drain = %+v", got)
	}

	short := NewReplayer(bgpstream.NewSliceSource(mkRecs(3, time.Minute)), 0)
	if err := short.Seek(context.Background(), Cursor{Records: 7}); err == nil {
		t.Fatal("seek past archive end succeeded")
	}
}

// TestReplayerSeekSkipsPacing: the skipped prefix must not be paced — a 1x
// replay of a multi-hour archive would otherwise take hours to boot.
func TestReplayerSeekSkipsPacing(t *testing.T) {
	recs := mkRecs(5, time.Hour)
	r := NewReplayer(bgpstream.NewSliceSource(recs), 1)
	r.sleep = func(context.Context, time.Duration) error {
		t.Fatal("seek paced a skipped record")
		return nil
	}
	if err := r.Seek(context.Background(), Cursor{Records: 4}); err != nil {
		t.Fatal(err)
	}
	// The first delivered record anchors a fresh pacing origin: no sleep.
	if _, err := r.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestTrackedCursor pins the wrapper contract: LastCursor always points at
// the most recently delivered record, so a Seek there re-delivers it.
func TestTrackedCursor(t *testing.T) {
	recs := mkRecs(6, time.Minute)
	tr := Track(NewReplayer(bgpstream.NewSliceSource(recs), 0))
	for i := 0; i < 4; i++ {
		if _, err := tr.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.LastCursor(); got.Records != 3 {
		t.Fatalf("LastCursor = %+v, want record 3", got)
	}
	if got := tr.Cursor(); got.Records != 4 {
		t.Fatalf("Cursor = %+v, want record 4", got)
	}
	resumed := NewReplayer(bgpstream.NewSliceSource(recs), 0)
	if err := resumed.Seek(context.Background(), tr.LastCursor()); err != nil {
		t.Fatal(err)
	}
	rec, err := resumed.Next(context.Background())
	if err != nil || !rec.Time.Equal(recs[3].Time) {
		t.Fatalf("resumed record = %v, %v; want the in-flight record %v", rec, err, recs[3].Time)
	}

	// Ended turns true at end of stream and at nothing else: not mid-stream,
	// not when the consumer gives up.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Next(cancelled); err == nil || tr.Ended() {
		t.Fatalf("Next on a cancelled context: err %v, Ended %v", err, tr.Ended())
	}
	for i := 4; i < len(recs); i++ {
		if _, err := tr.Next(context.Background()); err != nil || tr.Ended() {
			t.Fatalf("record %d: err %v, Ended %v", i, err, tr.Ended())
		}
	}
	if _, err := tr.Next(context.Background()); err != io.EOF || !tr.Ended() {
		t.Fatalf("past the last record: err %v, Ended %v; want io.EOF and true", err, tr.Ended())
	}
}

// TestSyntheticSeek pins the window-seed resume path: seeking to a cursor
// taken mid-stream re-renders only that window (deterministically, from the
// configured seed) and the resumed stream continues record-for-record where
// the original left off — including across a window boundary.
func TestSyntheticSeek(t *testing.T) {
	w := soakWorld(t)
	cfg := SyntheticConfig{
		Seed: 9, Window: 24 * time.Hour, Cycles: 2,
		FacilityOutages: 1, LinkOutages: 1, IXPOutages: 0, ASOutages: 0,
	}
	full := drain(t, NewSynthetic(w, cfg))
	if len(full) < 10 {
		t.Fatalf("scenario rendered only %d records", len(full))
	}

	// Walk a fresh generator to several positions (mid-window-0, exactly a
	// window boundary, mid-window-1), capture the cursor, and resume a third
	// generator there.
	probePositions := []int{len(full) / 3, len(full) / 2, len(full) * 4 / 5}
	for _, pos := range probePositions {
		orig := NewSynthetic(w, cfg)
		for i := 0; i < pos; i++ {
			if _, err := orig.Next(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		cur := orig.Cursor()
		if cur.Records != uint64(pos) {
			t.Fatalf("cursor records = %d, want %d", cur.Records, pos)
		}
		resumed := NewSynthetic(w, cfg)
		if err := resumed.Seek(context.Background(), cur); err != nil {
			t.Fatal(err)
		}
		rest := drain(t, resumed)
		if len(rest) != len(full)-pos {
			t.Fatalf("resumed at %d: got %d records, want %d", pos, len(rest), len(full)-pos)
		}
		for i, rec := range rest {
			want := full[pos+i]
			if !rec.Time.Equal(want.Time) || rec.Kind != want.Kind || rec.PeerAS != want.PeerAS {
				t.Fatalf("resumed record %d diverges: %v vs %v", pos+i, rec, want)
			}
		}
	}

	// Seeking after streaming started is a programming error.
	late := NewSynthetic(w, cfg)
	if _, err := late.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := late.Seek(context.Background(), Cursor{}); err == nil {
		t.Fatal("seek after streaming started succeeded")
	}
}
