package mrt

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// FuzzReader feeds the archive reader hostile bytes. It must never panic,
// and every record it returns must stay exactly as it was read while the
// reader goes on: after each Next, every earlier record still deep-equals
// the Clone taken when it was returned. This is what catches a record
// that aliases a buffer the reader reuses.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		recs := make([]*Record, 2+rng.Intn(6))
		for j := range recs {
			recs[j] = randomRecord(rng)
		}
		buf.Reset()
		if err := WriteAll(&buf, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(magic[:])
	f.Fuzz(func(t *testing.T, b []byte) {
		rd := NewReader(bytes.NewReader(b))
		var got, clones []*Record
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if rec != nil {
					t.Fatalf("Next returned a record with error %v", err)
				}
				return
			}
			c := rec.Clone()
			c.Collector = strings.Clone(rec.Collector) // Clone shares the string
			got = append(got, rec)
			clones = append(clones, c)
			for i := range got {
				if !reflect.DeepEqual(got[i], clones[i]) {
					t.Fatalf("record %d changed after %d more reads:\n%+v\n%+v", i, len(got)-1-i, got[i], clones[i])
				}
			}
		}
	})
}
