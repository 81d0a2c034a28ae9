package bgp

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
)

// rawAttr encodes one path attribute as it appears on the wire, choosing
// the extended-length form when flags ask for it.
func rawAttr(flags, code byte, val []byte) []byte {
	out := []byte{flags, code}
	if flags&flagExtendedLength != 0 {
		out = binary.BigEndian.AppendUint16(out, uint16(len(val)))
	} else {
		out = append(out, byte(len(val)))
	}
	return append(out, val...)
}

// rawSegment encodes one AS_PATH segment of 4-octet ASNs.
func rawSegment(segType byte, asns ...uint32) []byte {
	out := []byte{segType, byte(len(asns))}
	for _, a := range asns {
		out = binary.BigEndian.AppendUint32(out, a)
	}
	return out
}

// rawUpdate frames withdrawn routes, attributes and NLRI as a full UPDATE
// message. Unlike MarshalUpdate it encodes whatever it is given, so tests
// can build messages the encoder never emits (AS_SETs, several segments,
// extended lengths, repeated attributes).
func rawUpdate(wdr, attrs, nlri []byte) []byte {
	body := binary.BigEndian.AppendUint16(nil, uint16(len(wdr)))
	body = append(body, wdr...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	body = append(body, nlri...)
	msg := make([]byte, headerLen, headerLen+len(body))
	for i := 0; i < markerLen; i++ {
		msg[i] = 0xff
	}
	binary.BigEndian.PutUint16(msg[markerLen:], uint16(headerLen+len(body)))
	msg[markerLen+2] = msgTypeUpdate
	return append(msg, body...)
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// fuzzSeeds are the decoder corpus seeds: every NLRI family, every
// AS_PATH shape and attribute encoding the decoder accepts.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	marshal := func(u *Update) []byte {
		b, err := MarshalUpdate(u)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	v4 := marshal(&Update{
		Withdrawn: []netip.Prefix{mustPrefix("198.0.0.0/16")},
		Announced: []netip.Prefix{mustPrefix("184.84.242.0/24"), mustPrefix("2.21.67.0/24")},
		Attrs: Attributes{
			ASPath:      Path{13030, 20940},
			NextHop:     netip.MustParseAddr("192.0.2.1"),
			MED:         50,
			HasMED:      true,
			LocalPref:   200,
			HasLocal:    true,
			Communities: Communities{{13030, 51904}, {13030, 4006}},
		},
	})
	v6 := marshal(&Update{
		Withdrawn: []netip.Prefix{mustPrefix("2a02:2e0::/32"), mustPrefix("10.0.0.0/8")},
		Announced: []netip.Prefix{mustPrefix("2001:7f8::/32"), mustPrefix("2a00:1450::/29")},
		Attrs: Attributes{
			ASPath:  Path{6939, 15169},
			NextHop: netip.MustParseAddr("2001:7f8::1"),
		},
	})
	withdrawOnly := marshal(&Update{Withdrawn: []netip.Prefix{mustPrefix("184.84.0.0/16")}})
	origin := rawAttr(flagTransitive, attrOrigin, []byte{0})
	nextHop := rawAttr(flagTransitive, attrNextHop, []byte{192, 0, 2, 1})
	nlri := []byte{24, 184, 84, 242}
	asSet := rawUpdate(nil, concat(origin,
		rawAttr(flagTransitive, attrASPath, concat(rawSegment(segTypeASSequence, 3356, 1299), rawSegment(segTypeASSet, 13030, 20940))),
		nextHop), nlri)
	multiSeg := rawUpdate(nil, concat(origin,
		rawAttr(flagTransitive, attrASPath, concat(rawSegment(segTypeASSequence, 3356), rawSegment(segTypeASSequence), rawSegment(segTypeASSequence, 174, 174, 20940))),
		nextHop), nlri)
	longPath := make([]uint32, 70) // 282 bytes: needs the extended length
	for i := range longPath {
		longPath[i] = uint32(64496 + i)
	}
	extended := rawUpdate(nil, concat(
		rawAttr(flagTransitive|flagExtendedLength, attrOrigin, []byte{2}),
		rawAttr(flagTransitive|flagExtendedLength, attrASPath, rawSegment(segTypeASSequence, longPath...)),
		nextHop), nlri)
	comms := rawUpdate(nil, concat(origin,
		rawAttr(flagTransitive, attrASPath, rawSegment(segTypeASSequence, 13030)),
		nextHop,
		rawAttr(flagOptional|flagTransitive, attrCommunities, []byte{0x32, 0xe6, 0xca, 0xc0}),
		rawAttr(flagOptional|flagTransitive, attrCommunities, nil),
		rawAttr(flagOptional|flagTransitive|flagExtendedLength, attrCommunities, []byte{0x32, 0xe6, 0x0f, 0xa6, 0xff, 0xff, 0xff, 0x01}),
		rawAttr(flagOptional|flagTransitive, attrLargeCommunity, make([]byte, 12))), nlri)
	return [][]byte{v4, v6, withdrawOnly, asSet, multiSeg, extended, comms, concat(v4, withdrawOnly)}
}

func TestFuzzSeedsDecode(t *testing.T) {
	for i, b := range fuzzSeeds(t) {
		if _, _, err := UnmarshalUpdate(b); err != nil {
			t.Errorf("seed %d does not decode: %v", i, err)
		}
	}
}

// FuzzUnmarshalUpdate feeds the UPDATE decoder hostile bytes. It must
// never panic, and whatever decodes must decode identically from a copy of
// the input: the result depends on the bytes alone, never on the buffer
// that held them.
func FuzzUnmarshalUpdate(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		u, n, err := UnmarshalUpdate(b)
		if err != nil {
			return
		}
		if n < headerLen || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		cp := append([]byte(nil), b...)
		u2, n2, err := UnmarshalUpdate(cp)
		if err != nil || n2 != n {
			t.Fatalf("second decode: n=%d err=%v, first n=%d", n2, err, n)
		}
		for i := range cp {
			cp[i] = ^cp[i] // a decoded update must not alias its input
		}
		if !reflect.DeepEqual(u, u2) {
			t.Fatalf("decode of a copy differs:\n%+v\n%+v", u, u2)
		}
		// Decoding into a used update overwrites every field.
		dirty := Update{
			Withdrawn: []netip.Prefix{mustPrefix("10.0.0.0/8")},
			Announced: make([]netip.Prefix, 2, 3),
			Attrs: Attributes{Origin: OriginIncomplete, ASPath: Path{1}, NextHop: netip.MustParseAddr("192.0.2.1"),
				MED: 1, HasMED: true, LocalPref: 1, HasLocal: true, Communities: Communities{{1, 1}}},
		}
		if n3, err := UnmarshalUpdateInto(&dirty, b); err != nil || n3 != n || !reflect.DeepEqual(&dirty, u) {
			t.Fatalf("decode into a used update: n=%d err=%v\n%+v\n%+v", n3, err, dirty, u)
		}
	})
}
