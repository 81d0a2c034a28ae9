package mrt

import (
	"bytes"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"kepler/internal/bgp"
)

func sampleRecords() []*Record {
	t0 := time.Date(2015, 5, 13, 8, 22, 0, 0, time.UTC)
	return []*Record{
		{
			Time:      t0,
			Kind:      KindRIB,
			Collector: "rrc00",
			PeerAS:    13030,
			PeerAddr:  netip.MustParseAddr("192.0.2.1"),
			Update: &bgp.Update{
				Announced: []netip.Prefix{netip.MustParsePrefix("184.84.242.0/24")},
				Attrs: bgp.Attributes{
					ASPath:      bgp.Path{13030, 20940},
					NextHop:     netip.MustParseAddr("192.0.2.1"),
					Communities: bgp.Communities{bgp.MakeCommunity(13030, 51904)},
				},
			},
		},
		{
			Time:      t0.Add(90 * time.Second),
			Kind:      KindUpdate,
			Collector: "route-views2",
			PeerAS:    6695,
			PeerAddr:  netip.MustParseAddr("2001:7f8::1"),
			Update: &bgp.Update{
				Withdrawn: []netip.Prefix{netip.MustParsePrefix("184.84.242.0/24")},
			},
		},
		{
			Time:      t0.Add(2 * time.Minute),
			Kind:      KindState,
			Collector: "rrc03",
			PeerAS:    1273,
			PeerAddr:  netip.MustParseAddr("192.0.2.9"),
			OldState:  StateEstablished,
			NewState:  StateIdle,
		},
	}
}

func TestRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		w, g := recs[i], got[i]
		if !g.Time.Equal(w.Time) {
			t.Errorf("record %d time = %v, want %v", i, g.Time, w.Time)
		}
		if g.Kind != w.Kind || g.Collector != w.Collector || g.PeerAS != w.PeerAS || g.PeerAddr != w.PeerAddr {
			t.Errorf("record %d header = %+v, want %+v", i, g, w)
		}
	}
	if got[0].Update == nil || got[0].Update.Attrs.Communities.String() != "13030:51904" {
		t.Errorf("RIB payload lost: %+v", got[0].Update)
	}
	if got[1].Update == nil || len(got[1].Update.Withdrawn) != 1 {
		t.Errorf("update payload lost: %+v", got[1].Update)
	}
	if got[2].OldState != StateEstablished || got[2].NewState != StateIdle {
		t.Errorf("state payload lost: %+v", got[2])
	}
}

func TestEmptyStream(t *testing.T) {
	got, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Errorf("ReadAll(empty) = %v, %v", got, err)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := ReadAll(bytes.NewReader([]byte("NOTMRT....")))
	if err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{0xff, 0xff})
	_, err := ReadAll(&buf)
	if err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must either yield fewer records or an error —
	// never a panic or phantom record.
	for i := 7; i < len(full); i += 11 {
		recs, err := ReadAll(bytes.NewReader(full[:i]))
		if err == nil && len(recs) >= 3 {
			t.Errorf("truncated stream at %d produced all records", i)
		}
	}
}

func TestWriterRejectsBadRecords(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteRecord(&Record{Kind: KindUpdate}); err == nil {
		t.Error("update without payload accepted")
	}
	if err := w.WriteRecord(&Record{Kind: KindInvalid}); err == nil {
		t.Error("invalid kind accepted")
	}
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	if err := w.WriteRecord(&Record{
		Kind:      KindState,
		Collector: string(long),
		OldState:  StateIdle, NewState: StateConnect,
	}); err == nil {
		t.Error("over-long collector name accepted")
	}
}

func TestRecordClone(t *testing.T) {
	r := sampleRecords()[0]
	c := r.Clone()
	c.Update.Announced[0] = netip.MustParsePrefix("198.51.100.0/24")
	c.Update.Attrs.ASPath[0] = 9999
	if r.Update.Announced[0] != netip.MustParsePrefix("184.84.242.0/24") {
		t.Error("Clone shares Announced")
	}
	if r.Update.Attrs.ASPath[0] != 13030 {
		t.Error("Clone shares ASPath")
	}
	s := sampleRecords()[2]
	if sc := s.Clone(); sc.NewState != s.NewState {
		t.Error("state clone wrong")
	}
}

func TestKindAndStateStrings(t *testing.T) {
	if KindRIB.String() != "RIB" || KindUpdate.String() != "UPDATE" || KindState.String() != "STATE" {
		t.Error("kind names wrong")
	}
	if KindInvalid.String() != "INVALID" {
		t.Error("invalid kind name wrong")
	}
	if StateEstablished.String() != "Established" || StateIdle.String() != "Idle" {
		t.Error("state names wrong")
	}
	if SessionState(99).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestLargeArchive(t *testing.T) {
	// Exercise buffered IO across many records.
	t0 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	var recs []*Record
	for i := 0; i < 5000; i++ {
		recs = append(recs, &Record{
			Time:      t0.Add(time.Duration(i) * time.Second),
			Kind:      KindUpdate,
			Collector: "rrc00",
			PeerAS:    bgp.ASN(3356),
			PeerAddr:  netip.MustParseAddr("192.0.2.1"),
			Update: &bgp.Update{
				Announced: []netip.Prefix{netip.MustParsePrefix("184.84.242.0/24")},
				Attrs: bgp.Attributes{
					ASPath:  bgp.Path{3356, bgp.ASN(i%1000 + 1)},
					NextHop: netip.MustParseAddr("192.0.2.1"),
				},
			},
		})
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d, want %d", len(got), len(recs))
	}
	// Timestamps must be strictly increasing as written.
	for i := 1; i < len(got); i++ {
		if !got[i].Time.After(got[i-1].Time) {
			t.Fatalf("timestamps out of order at %d", i)
		}
	}
}

// ribArchive writes n one-prefix RIB records of the shape a full RIB dump
// is made of: a three-hop path and one community.
func ribArchive(t *testing.T, n int) []byte {
	t.Helper()
	t0 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = &Record{
			Time: t0.Add(time.Duration(i) * time.Millisecond), Kind: KindRIB,
			Collector: "rrc00", PeerAS: 3356, PeerAddr: netip.MustParseAddr("192.0.2.1"),
			Update: &bgp.Update{
				Announced: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24)},
				Attrs: bgp.Attributes{
					ASPath:      bgp.Path{3356, 1299, bgp.ASN(20000 + i)},
					NextHop:     netip.MustParseAddr("192.0.2.1"),
					Communities: bgp.Communities{bgp.MakeCommunity(3356, 2001)},
				},
			},
		}
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNextAllocs is the decode allocation budget: a one-prefix RIB record
// costs its record block (record, update and prefix), its AS path and its
// communities, and nothing else.
func TestNextAllocs(t *testing.T) {
	rd := NewReader(bytes.NewReader(ribArchive(t, 200)))
	allocs := testing.AllocsPerRun(150, func() {
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("Next allocates %v times per one-prefix RIB record, budget 3", allocs)
	}
}

// TestNextDoesNotAliasReader: a record stays intact however the reader's
// reused buffers are overwritten later, and collector names are shared.
func TestNextDoesNotAliasReader(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := make([]*Record, 300)
	for i := range in {
		in[i] = randomRecord(rng)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, in); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(&buf)
	var got, clones []*Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
		clones = append(clones, rec.Clone())
	}
	if len(got) != len(in) {
		t.Fatalf("read %d of %d records", len(got), len(in))
	}
	for _, scratch := range [][]byte{rd.fixed[:], rd.name[:], rd.blen[:], rd.body[:cap(rd.body)]} {
		for i := range scratch {
			scratch[i] ^= 0xa5
		}
	}
	byName := map[string]*Record{}
	for i := range got {
		if !reflect.DeepEqual(got[i], clones[i]) || got[i].Collector != in[i].Collector {
			t.Fatalf("record %d changed with the reader's buffers:\n%+v\n%+v", i, got[i], clones[i])
		}
		first, ok := byName[got[i].Collector]
		if !ok {
			byName[got[i].Collector] = got[i]
			continue
		}
		if unsafe.StringData(first.Collector) != unsafe.StringData(got[i].Collector) {
			t.Errorf("record %d: collector %q not interned", i, got[i].Collector)
		}
	}
}
