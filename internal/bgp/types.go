// Package bgp provides the BGP substrate Kepler is built on: autonomous
// system numbers, prefixes, the communities attribute (RFC 1997), AS paths,
// update/withdraw/state records, a binary wire codec for UPDATE messages
// (RFC 4271 with 4-octet ASNs and RFC 4760 multiprotocol IPv6 NLRI), and the
// path-sanitation rules Kepler's input module applies (AS loops, private and
// special-purpose ASNs, bogon prefixes).
package bgp

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// ASN is a 4-octet autonomous system number (RFC 6793).
type ASN uint32

// String renders the ASN in the conventional "AS64500" form.
func (a ASN) String() string { return "AS" + strconv.FormatUint(uint64(a), 10) }

// IsPrivate reports whether the ASN falls in the 16-bit (64512–65534) or
// 32-bit (4200000000–4294967294) private-use ranges (RFC 6996).
func (a ASN) IsPrivate() bool {
	return (a >= 64512 && a <= 65534) || (a >= 4200000000 && a <= 4294967294)
}

// IsSpecialPurpose reports whether the ASN is reserved or documentation-only
// and must never appear in a sane public AS path: AS0 (RFC 7607), AS23456
// (AS_TRANS, RFC 6793), 64496–64511 and 65536–65551 (documentation,
// RFC 5398), 65535 and 4294967295 (last ASNs, RFC 7300).
func (a ASN) IsSpecialPurpose() bool {
	switch {
	case a == 0, a == 23456, a == 65535, a == 4294967295:
		return true
	case a >= 64496 && a <= 64511:
		return true
	case a >= 65536 && a <= 65551:
		return true
	}
	return false
}

// Routable reports whether the ASN may legitimately appear in a public AS
// path seen at a route collector.
func (a ASN) Routable() bool { return !a.IsPrivate() && !a.IsSpecialPurpose() }

// Community is a classic RFC 1997 BGP community: two 16-bit halves
// conventionally written "High:Low". The high half is, by convention, the
// ASN of the operator that attached the community; the low half is an
// operator-defined value (for Kepler, frequently an ingress-location code).
type Community struct {
	High uint16
	Low  uint16
}

// MakeCommunity assembles a community from its two halves.
func MakeCommunity(high, low uint16) Community { return Community{High: high, Low: low} }

// CommunityFromUint32 splits a packed 32-bit community value.
func CommunityFromUint32(v uint32) Community {
	return Community{High: uint16(v >> 16), Low: uint16(v)}
}

// Uint32 packs the community into its 32-bit wire representation.
func (c Community) Uint32() uint32 { return uint32(c.High)<<16 | uint32(c.Low) }

// ASN returns the operator ASN conventionally encoded in the top 16 bits.
func (c Community) ASN() ASN { return ASN(c.High) }

// String renders the community in "High:Low" notation.
func (c Community) String() string {
	return strconv.Itoa(int(c.High)) + ":" + strconv.Itoa(int(c.Low))
}

// ParseCommunity parses "High:Low" notation. It rejects halves outside
// [0, 65535] and malformed strings.
func ParseCommunity(s string) (Community, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return Community{}, fmt.Errorf("bgp: community %q: missing ':'", s)
	}
	hi, err := strconv.ParseUint(s[:i], 10, 16)
	if err != nil {
		return Community{}, fmt.Errorf("bgp: community %q: bad high half: %v", s, err)
	}
	lo, err := strconv.ParseUint(s[i+1:], 10, 16)
	if err != nil {
		return Community{}, fmt.Errorf("bgp: community %q: bad low half: %v", s, err)
	}
	return Community{High: uint16(hi), Low: uint16(lo)}, nil
}

// Communities is a set of communities attached to a route. Wire order is
// not semantic; Normalize sorts and deduplicates.
type Communities []Community

// Normalize sorts the set ascending by packed value and removes duplicates,
// in place, returning the (possibly shortened) slice.
func (cs Communities) Normalize() Communities {
	if len(cs) < 2 {
		return cs
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Uint32() < cs[j].Uint32() })
	out := cs[:1]
	for _, c := range cs[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// Contains reports whether the set includes c.
func (cs Communities) Contains(c Community) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// ByASN returns the subset of communities whose high half equals asn,
// preserving order.
func (cs Communities) ByASN(asn ASN) Communities {
	var out Communities
	for _, c := range cs {
		if c.ASN() == asn {
			out = append(out, c)
		}
	}
	return out
}

// Clone returns an independent copy.
func (cs Communities) Clone() Communities {
	if cs == nil {
		return nil
	}
	out := make(Communities, len(cs))
	copy(out, cs)
	return out
}

// Equal reports whether two community sets are identical element-wise
// (callers should Normalize first if order is not meaningful).
func (cs Communities) Equal(other Communities) bool {
	if len(cs) != len(other) {
		return false
	}
	for i := range cs {
		if cs[i] != other[i] {
			return false
		}
	}
	return true
}

// String renders the set space-separated, e.g. "13030:51904 13030:4006".
func (cs Communities) String() string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

// Path is an AS path. By BGP convention the leftmost entry (index 0) is the
// most recent hop — the collector's peer — and the rightmost is the
// originating AS.
type Path []ASN

// Origin returns the originating AS (rightmost), or 0 for an empty path.
func (p Path) Origin() ASN {
	if len(p) == 0 {
		return 0
	}
	return p[len(p)-1]
}

// First returns the collector-adjacent AS (leftmost), or 0 for an empty path.
func (p Path) First() ASN {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// HasLoop reports whether any ASN appears in two non-adjacent positions.
// Adjacent duplicates (path prepending) are legitimate and not loops.
func (p Path) HasLoop() bool {
	if len(p) <= maxScanLoop {
		// A hop repeats a non-adjacent one unless it merely prepends the
		// hop before it; comparing pairs beats building a map this short.
		for i := 1; i < len(p); i++ {
			if p[i] == p[i-1] {
				continue
			}
			for _, a := range p[:i-1] {
				if a == p[i] {
					return true
				}
			}
		}
		return false
	}
	seen := make(map[ASN]int, len(p))
	for i, a := range p {
		if j, ok := seen[a]; ok && i-j > 1 {
			return true
		}
		seen[a] = i
	}
	return false
}

// maxScanLoop is the longest path HasLoop checks by comparing pairs
// rather than with a map.
const maxScanLoop = 32

// Dedup returns the path with adjacent prepending collapsed
// ("1 2 2 2 3" -> "1 2 3"). The receiver is unmodified; when it contains
// no prepending (the common case) it is returned as-is, without copying.
func (p Path) Dedup() Path {
	if len(p) == 0 {
		return nil
	}
	for i := 1; i < len(p); i++ {
		if p[i] != p[i-1] {
			continue
		}
		out := make(Path, i, len(p))
		copy(out, p[:i])
		for ; i < len(p); i++ {
			if p[i] != p[i-1] {
				out = append(out, p[i])
			}
		}
		return out
	}
	return p
}

// ContainsUnroutable reports whether any hop is a private or
// special-purpose ASN.
func (p Path) ContainsUnroutable() bool {
	for _, a := range p {
		if !a.Routable() {
			return true
		}
	}
	return false
}

// Contains reports whether the path traverses asn.
func (p Path) Contains(asn ASN) bool {
	for _, a := range p {
		if a == asn {
			return true
		}
	}
	return false
}

// Index returns the position of asn in the path, or -1.
func (p Path) Index(asn ASN) int {
	for i, a := range p {
		if a == asn {
			return i
		}
	}
	return -1
}

// Equal reports element-wise equality.
func (p Path) Equal(other Path) bool {
	if len(p) != len(other) {
		return false
	}
	for i := range p {
		if p[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// String renders the path space-separated, most recent hop first.
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, a := range p {
		parts[i] = strconv.FormatUint(uint64(a), 10)
	}
	return strings.Join(parts, " ")
}

// Origin attribute codes (RFC 4271 §4.3).
type Origin uint8

// Origin values.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String returns the RFC name of the origin code.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "INCOMPLETE"
	default:
		return "INVALID(" + strconv.Itoa(int(o)) + ")"
	}
}

// Attributes carries the path attributes Kepler consumes.
type Attributes struct {
	Origin      Origin
	ASPath      Path
	NextHop     netip.Addr
	MED         uint32
	HasMED      bool
	LocalPref   uint32
	HasLocal    bool
	Communities Communities
}

// Clone returns a deep copy of the attributes.
func (a Attributes) Clone() Attributes {
	out := a
	out.ASPath = a.ASPath.Clone()
	out.Communities = a.Communities.Clone()
	return out
}

// Update is one decoded BGP UPDATE message: any number of withdrawn
// prefixes plus any number of announced prefixes sharing one attribute set.
type Update struct {
	Withdrawn []netip.Prefix
	Announced []netip.Prefix
	Attrs     Attributes
}

// Empty reports whether the update carries neither announcements nor
// withdrawals.
func (u *Update) Empty() bool { return len(u.Withdrawn) == 0 && len(u.Announced) == 0 }
