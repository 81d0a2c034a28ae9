package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Wire codec for BGP UPDATE messages, RFC 4271 §4.3, with two widely
// deployed extensions: 4-octet AS numbers carried natively in AS_PATH
// (RFC 6793 "NEW_AS_PATH everywhere" form, as modern collectors emit) and
// IPv6 NLRI via MP_REACH_NLRI / MP_UNREACH_NLRI (RFC 4760).
//
// The codec is deliberately strict on decode: malformed attribute lengths,
// truncated NLRI and unknown mandatory fields are errors, because Kepler's
// input module must distinguish feed corruption from routing dynamics.

// Message header constants (RFC 4271 §4.1).
const (
	markerLen     = 16
	headerLen     = markerLen + 2 + 1 // marker + length + type
	maxMessageLen = 4096

	msgTypeUpdate = 2
)

// Path-attribute type codes.
const (
	attrOrigin          = 1
	attrASPath          = 2
	attrNextHop         = 3
	attrMED             = 4
	attrLocalPref       = 5
	attrCommunities     = 8
	attrMPReachNLRI     = 14
	attrMPUnreachNLRI   = 15
	attrLargeCommunity  = 32 // recognised and skipped
	flagOptional        = 0x80
	flagTransitive      = 0x40
	flagExtendedLength  = 0x10
	segTypeASSet        = 1
	segTypeASSequence   = 2
	afiIPv6             = 2
	safiUnicast         = 1
	maxASPathSegmentLen = 255
)

// Codec errors.
var (
	ErrTruncated = errors.New("bgp: truncated message")
	ErrBadMarker = errors.New("bgp: bad message marker")
	ErrBadLength = errors.New("bgp: bad message length")
	ErrNotUpdate = errors.New("bgp: not an UPDATE message")
	ErrBadAttr   = errors.New("bgp: malformed path attribute")
	ErrBadNLRI   = errors.New("bgp: malformed NLRI")
	ErrTooLarge  = errors.New("bgp: message exceeds 4096 bytes")
)

// MarshalUpdate encodes an Update into a full BGP message (header
// included). IPv4 announcements ride the classic NLRI field; IPv6
// announcements and withdrawals are encoded as MP_REACH_NLRI /
// MP_UNREACH_NLRI attributes. Withdrawals of both families may mix in one
// update. Announcements of both may not: they share the one next hop, and
// IPv4 NLRI needs an IPv4 next hop while MP_REACH_NLRI needs an IPv6 one, so
// a mixed announcement set fails the next-hop check with ErrBadAttr.
func MarshalUpdate(u *Update) ([]byte, error) {
	v4Ann, v6Ann, err := splitFamily(u.Announced)
	if err != nil {
		return nil, err
	}
	v4Wdr, v6Wdr, err := splitFamily(u.Withdrawn)
	if err != nil {
		return nil, err
	}

	body := make([]byte, 0, 256)

	// Withdrawn routes (IPv4 only here).
	wdr := encodePrefixes(nil, v4Wdr)
	if len(wdr) > 0xffff {
		return nil, ErrTooLarge
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(wdr)))
	body = append(body, wdr...)

	// Path attributes.
	attrs, err := marshalAttrs(&u.Attrs, v4Ann, v6Ann, v6Wdr)
	if err != nil {
		return nil, err
	}
	if len(attrs) > 0xffff {
		return nil, ErrTooLarge
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)

	// Classic NLRI (IPv4).
	body = encodePrefixes(body, v4Ann)

	total := headerLen + len(body)
	if total > maxMessageLen {
		return nil, ErrTooLarge
	}
	msg := make([]byte, headerLen, total)
	for i := 0; i < markerLen; i++ {
		msg[i] = 0xff
	}
	binary.BigEndian.PutUint16(msg[markerLen:], uint16(total))
	msg[markerLen+2] = msgTypeUpdate
	return append(msg, body...), nil
}

// UnmarshalUpdate decodes a full BGP message produced by MarshalUpdate (or
// any conforming peer). It returns the decoded update and the number of
// bytes consumed, allowing streams of back-to-back messages.
func UnmarshalUpdate(b []byte) (*Update, int, error) {
	u := new(Update)
	n, err := UnmarshalUpdateInto(u, b)
	if err != nil {
		return nil, 0, err
	}
	return u, n, nil
}

// UnmarshalUpdateInto is UnmarshalUpdate decoding into u, which it
// overwrites field by field. Nothing in u aliases b afterwards, so b may be
// reused as soon as it returns. Every slice is allocated once at its exact
// size, and is nil when empty, with one exception: if u.Announced already
// has the capacity for every announced prefix, the prefixes are stored in
// it instead. That lets a caller co-allocate the common one-prefix update
// with storage of its own. On error the contents of u are unspecified.
func UnmarshalUpdateInto(u *Update, b []byte) (int, error) {
	if len(b) < headerLen {
		return 0, ErrTruncated
	}
	for i := 0; i < markerLen; i++ {
		if b[i] != 0xff {
			return 0, ErrBadMarker
		}
	}
	total := int(binary.BigEndian.Uint16(b[markerLen:]))
	if total < headerLen || total > maxMessageLen {
		return 0, ErrBadLength
	}
	if len(b) < total {
		return 0, ErrTruncated
	}
	if b[markerLen+2] != msgTypeUpdate {
		return 0, ErrNotUpdate
	}
	body := b[headerLen:total]
	spare := u.Announced[:0]
	*u = Update{}

	// Validate and count every field first, in message order (so the first
	// malformed field names the error), then allocate each slice once.
	if len(body) < 2 {
		return 0, ErrTruncated
	}
	wdrLen := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if len(body) < wdrLen {
		return 0, ErrTruncated
	}
	wdr4 := body[:wdrLen]
	nWdr4, err := countPrefixes(wdr4, false)
	if err != nil {
		return 0, err
	}
	body = body[wdrLen:]

	if len(body) < 2 {
		return 0, ErrTruncated
	}
	attrLen := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if len(body) < attrLen {
		return 0, ErrTruncated
	}
	attrs := body[:attrLen]
	nAnn6, nWdr6, err := unmarshalAttrs(attrs, &u.Attrs)
	if err != nil {
		return 0, err
	}
	ann4 := body[attrLen:]
	nAnn4, err := countPrefixes(ann4, false)
	if err != nil {
		return 0, err
	}

	// IPv4 prefixes come first in each list, then IPv6 ones in attribute
	// order.
	u.Withdrawn = makePrefixes(nil, nWdr4+nWdr6)
	u.Announced = makePrefixes(spare, nAnn4+nAnn6)
	decodePrefixes(u.Withdrawn, wdr4, false)
	decodePrefixes(u.Announced, ann4, false)
	if nAnn6+nWdr6 > 0 {
		decodeMP(attrs, u.Announced[nAnn4:], u.Withdrawn[nWdr4:])
	}
	return total, nil
}

// makePrefixes returns a slice of n prefixes: nil when n is zero, spare
// when it has room, a new slice otherwise.
func makePrefixes(spare []netip.Prefix, n int) []netip.Prefix {
	switch {
	case n == 0:
		return nil
	case n <= cap(spare):
		return spare[:n]
	default:
		return make([]netip.Prefix, n)
	}
}

func splitFamily(prefixes []netip.Prefix) (v4, v6 []netip.Prefix, err error) {
	for _, p := range prefixes {
		if !p.IsValid() {
			return nil, nil, fmt.Errorf("%w: invalid prefix %v", ErrBadNLRI, p)
		}
		if p.Addr().Is4() {
			v4 = append(v4, p)
		} else {
			v6 = append(v6, p)
		}
	}
	return v4, v6, nil
}

func marshalAttrs(a *Attributes, v4Ann, v6Ann, v6Wdr []netip.Prefix) ([]byte, error) {
	out := make([]byte, 0, 128)

	appendAttr := func(flags, code byte, val []byte) error {
		if len(val) > 255 {
			flags |= flagExtendedLength
		}
		out = append(out, flags, code)
		if flags&flagExtendedLength != 0 {
			if len(val) > 0xffff {
				return ErrTooLarge
			}
			out = binary.BigEndian.AppendUint16(out, uint16(len(val)))
		} else {
			out = append(out, byte(len(val)))
		}
		out = append(out, val...)
		return nil
	}

	// ORIGIN — mandatory when anything is announced.
	if len(v4Ann) > 0 || len(v6Ann) > 0 {
		if err := appendAttr(flagTransitive, attrOrigin, []byte{byte(a.Origin)}); err != nil {
			return nil, err
		}
		// AS_PATH as one AS_SEQUENCE segment of 4-octet ASNs.
		if len(a.ASPath) > maxASPathSegmentLen {
			return nil, fmt.Errorf("%w: AS path longer than %d", ErrBadAttr, maxASPathSegmentLen)
		}
		seg := make([]byte, 2+4*len(a.ASPath))
		seg[0] = segTypeASSequence
		seg[1] = byte(len(a.ASPath))
		for i, asn := range a.ASPath {
			binary.BigEndian.PutUint32(seg[2+4*i:], uint32(asn))
		}
		if err := appendAttr(flagTransitive, attrASPath, seg); err != nil {
			return nil, err
		}
	}
	// NEXT_HOP — required for classic IPv4 NLRI.
	if len(v4Ann) > 0 {
		nh := a.NextHop
		if !nh.IsValid() || !nh.Is4() {
			return nil, fmt.Errorf("%w: IPv4 NLRI requires an IPv4 next hop", ErrBadAttr)
		}
		b := nh.As4()
		if err := appendAttr(flagTransitive, attrNextHop, b[:]); err != nil {
			return nil, err
		}
	}
	if a.HasMED {
		if err := appendAttr(flagOptional, attrMED, binary.BigEndian.AppendUint32(nil, a.MED)); err != nil {
			return nil, err
		}
	}
	if a.HasLocal {
		if err := appendAttr(flagTransitive, attrLocalPref, binary.BigEndian.AppendUint32(nil, a.LocalPref)); err != nil {
			return nil, err
		}
	}
	if len(a.Communities) > 0 {
		val := make([]byte, 0, 4*len(a.Communities))
		for _, c := range a.Communities {
			val = binary.BigEndian.AppendUint32(val, c.Uint32())
		}
		if err := appendAttr(flagOptional|flagTransitive, attrCommunities, val); err != nil {
			return nil, err
		}
	}
	if len(v6Ann) > 0 {
		nh := a.NextHop
		if !nh.IsValid() || !nh.Is6() || nh.Is4In6() {
			return nil, fmt.Errorf("%w: IPv6 NLRI requires an IPv6 next hop", ErrBadAttr)
		}
		val := make([]byte, 0, 32)
		val = binary.BigEndian.AppendUint16(val, afiIPv6)
		val = append(val, safiUnicast)
		nhb := nh.As16()
		val = append(val, 16)
		val = append(val, nhb[:]...)
		val = append(val, 0) // reserved SNPA count
		val = encodePrefixes(val, v6Ann)
		if err := appendAttr(flagOptional, attrMPReachNLRI, val); err != nil {
			return nil, err
		}
	}
	if len(v6Wdr) > 0 {
		val := make([]byte, 0, 16)
		val = binary.BigEndian.AppendUint16(val, afiIPv6)
		val = append(val, safiUnicast)
		val = encodePrefixes(val, v6Wdr)
		if err := appendAttr(flagOptional, attrMPUnreachNLRI, val); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// nextAttr splits the first path attribute off b. ok is false when its
// header or value is truncated.
func nextAttr(b []byte) (flags, code byte, val, rest []byte, ok bool) {
	if len(b) < 3 {
		return 0, 0, nil, nil, false
	}
	flags, code = b[0], b[1]
	var alen int
	if flags&flagExtendedLength != 0 {
		if len(b) < 4 {
			return 0, 0, nil, nil, false
		}
		alen = int(binary.BigEndian.Uint16(b[2:]))
		b = b[4:]
	} else {
		alen = int(b[2])
		b = b[3:]
	}
	if len(b) < alen {
		return 0, 0, nil, nil, false
	}
	return flags, code, b[:alen], b[alen:], true
}

// unmarshalAttrs decodes the path attributes into a. The IPv6 NLRI of
// MP_REACH_NLRI / MP_UNREACH_NLRI are only validated and counted here;
// decodeMP fills them in once the caller has allocated room.
func unmarshalAttrs(b []byte, a *Attributes) (nAnn6, nWdr6 int, err error) {
	for len(b) > 0 {
		flags, code, val, rest, ok := nextAttr(b)
		if !ok {
			return 0, 0, ErrBadAttr
		}
		b = rest
		alen := len(val)

		switch code {
		case attrOrigin:
			if alen != 1 {
				return 0, 0, fmt.Errorf("%w: ORIGIN length %d", ErrBadAttr, alen)
			}
			a.Origin = Origin(val[0])
		case attrASPath:
			p, err := decodeASPath(val)
			if err != nil {
				return 0, 0, err
			}
			a.ASPath = p
		case attrNextHop:
			if alen != 4 {
				return 0, 0, fmt.Errorf("%w: NEXT_HOP length %d", ErrBadAttr, alen)
			}
			a.NextHop = netip.AddrFrom4([4]byte(val))
		case attrMED:
			if alen != 4 {
				return 0, 0, fmt.Errorf("%w: MED length %d", ErrBadAttr, alen)
			}
			a.MED = binary.BigEndian.Uint32(val)
			a.HasMED = true
		case attrLocalPref:
			if alen != 4 {
				return 0, 0, fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadAttr, alen)
			}
			a.LocalPref = binary.BigEndian.Uint32(val)
			a.HasLocal = true
		case attrCommunities:
			if alen%4 != 0 {
				return 0, 0, fmt.Errorf("%w: COMMUNITIES length %d", ErrBadAttr, alen)
			}
			if alen > 0 && a.Communities == nil {
				a.Communities = make(Communities, 0, alen/4)
			}
			for i := 0; i < alen; i += 4 {
				a.Communities = append(a.Communities, CommunityFromUint32(binary.BigEndian.Uint32(val[i:])))
			}
		case attrMPReachNLRI:
			nlri, nh, err := mpReachNLRI(val)
			if err != nil {
				return 0, 0, err
			}
			n, err := countPrefixes(nlri, true)
			if err != nil {
				return 0, 0, err
			}
			nAnn6 += n
			if !a.NextHop.IsValid() {
				a.NextHop = nh
			}
		case attrMPUnreachNLRI:
			nlri, err := mpUnreachNLRI(val)
			if err != nil {
				return 0, 0, err
			}
			n, err := countPrefixes(nlri, true)
			if err != nil {
				return 0, 0, err
			}
			nWdr6 += n
		default:
			// Unknown optional attributes (incl. large communities) are
			// skipped; unknown well-known attributes are a decode error.
			if flags&flagOptional == 0 {
				return 0, 0, fmt.Errorf("%w: unknown well-known attribute %d", ErrBadAttr, code)
			}
		}
	}
	return nAnn6, nWdr6, nil
}

// decodeMP decodes the IPv6 NLRI of attributes that unmarshalAttrs
// accepted into ann and wdr, which it counted the room for.
func decodeMP(b []byte, ann, wdr []netip.Prefix) {
	for len(b) > 0 {
		_, code, val, rest, _ := nextAttr(b)
		b = rest
		switch code {
		case attrMPReachNLRI:
			nlri, _, _ := mpReachNLRI(val)
			ann = ann[decodePrefixes(ann, nlri, true):]
		case attrMPUnreachNLRI:
			nlri, _ := mpUnreachNLRI(val)
			wdr = wdr[decodePrefixes(wdr, nlri, true):]
		}
	}
}

// decodeASPath flattens the AS_SEQUENCE and AS_SET segments into one path,
// nil when they hold no ASN.
func decodeASPath(val []byte) (Path, error) {
	n := 0
	for rest := val; len(rest) > 0; {
		if len(rest) < 2 {
			return nil, fmt.Errorf("%w: truncated AS_PATH segment header", ErrBadAttr)
		}
		segType, k := rest[0], int(rest[1])
		rest = rest[2:]
		if len(rest) < 4*k {
			return nil, fmt.Errorf("%w: truncated AS_PATH segment", ErrBadAttr)
		}
		if segType != segTypeASSequence && segType != segTypeASSet {
			return nil, fmt.Errorf("%w: AS_PATH segment type %d", ErrBadAttr, segType)
		}
		n += k
		rest = rest[4*k:]
	}
	if n == 0 {
		return nil, nil
	}
	p := make(Path, 0, n)
	for len(val) > 0 {
		k := int(val[1])
		val = val[2:]
		for i := 0; i < k; i++ {
			p = append(p, ASN(binary.BigEndian.Uint32(val[4*i:])))
		}
		val = val[4*k:]
	}
	return p, nil
}

// mpReachNLRI checks an MP_REACH_NLRI value's header and returns its NLRI
// field and next hop.
func mpReachNLRI(val []byte) ([]byte, netip.Addr, error) {
	if len(val) < 5 {
		return nil, netip.Addr{}, fmt.Errorf("%w: short MP_REACH_NLRI", ErrBadAttr)
	}
	afi := binary.BigEndian.Uint16(val)
	safi := val[2]
	nhLen := int(val[3])
	val = val[4:]
	if afi != afiIPv6 || safi != safiUnicast {
		return nil, netip.Addr{}, fmt.Errorf("%w: unsupported AFI/SAFI %d/%d", ErrBadAttr, afi, safi)
	}
	if len(val) < nhLen+1 {
		return nil, netip.Addr{}, fmt.Errorf("%w: truncated MP next hop", ErrBadAttr)
	}
	var nh netip.Addr
	if nhLen >= 16 {
		nh = netip.AddrFrom16([16]byte(val[:16]))
	}
	val = val[nhLen:]
	snpa := int(val[0])
	val = val[1:]
	// Skip SNPA blocks (deprecated, always zero in practice).
	for i := 0; i < snpa; i++ {
		if len(val) < 1 {
			return nil, netip.Addr{}, fmt.Errorf("%w: truncated SNPA", ErrBadAttr)
		}
		l := int(val[0])
		if len(val) < 1+l {
			return nil, netip.Addr{}, fmt.Errorf("%w: truncated SNPA body", ErrBadAttr)
		}
		val = val[1+l:]
	}
	return val, nh, nil
}

// mpUnreachNLRI checks an MP_UNREACH_NLRI value's header and returns its
// withdrawn-routes field.
func mpUnreachNLRI(val []byte) ([]byte, error) {
	if len(val) < 3 {
		return nil, fmt.Errorf("%w: short MP_UNREACH_NLRI", ErrBadAttr)
	}
	afi := binary.BigEndian.Uint16(val)
	safi := val[2]
	if afi != afiIPv6 || safi != safiUnicast {
		return nil, fmt.Errorf("%w: unsupported AFI/SAFI %d/%d", ErrBadAttr, afi, safi)
	}
	return val[3:], nil
}

// encodePrefixes appends RFC 4271 NLRI encodings (length byte + minimal
// octets) of the prefixes to dst.
func encodePrefixes(dst []byte, prefixes []netip.Prefix) []byte {
	for _, p := range prefixes {
		bits := p.Bits()
		dst = append(dst, byte(bits))
		nbytes := (bits + 7) / 8
		if p.Addr().Is4() {
			b := p.Addr().As4()
			dst = append(dst, b[:nbytes]...)
		} else {
			b := p.Addr().As16()
			dst = append(dst, b[:nbytes]...)
		}
	}
	return dst
}

// countPrefixes validates a packed NLRI field and counts its prefixes. v6
// selects the address family (classic fields are IPv4; MP attributes carry
// IPv6 here).
func countPrefixes(b []byte, v6 bool) (int, error) {
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	n := 0
	for len(b) > 0 {
		bits := int(b[0])
		b = b[1:]
		if bits > maxBits {
			return 0, fmt.Errorf("%w: prefix length %d exceeds %d", ErrBadNLRI, bits, maxBits)
		}
		nbytes := (bits + 7) / 8
		if len(b) < nbytes {
			return 0, fmt.Errorf("%w: truncated prefix body", ErrBadNLRI)
		}
		b = b[nbytes:]
		n++
	}
	return n, nil
}

// decodePrefixes decodes a packed NLRI field that countPrefixes accepted
// into dst, masked to their lengths, and returns how many it wrote.
func decodePrefixes(dst []netip.Prefix, b []byte, v6 bool) int {
	n := 0
	for ; len(b) > 0; n++ {
		bits := int(b[0])
		nbytes := (bits + 7) / 8
		var addr netip.Addr
		if v6 {
			var buf [16]byte
			copy(buf[:], b[1:1+nbytes])
			addr = netip.AddrFrom16(buf)
		} else {
			var buf [4]byte
			copy(buf[:], b[1:1+nbytes])
			addr = netip.AddrFrom4(buf)
		}
		dst[n], _ = addr.Prefix(bits) // bits is in range: countPrefixes checked it
		b = b[1+nbytes:]
	}
	return n
}
