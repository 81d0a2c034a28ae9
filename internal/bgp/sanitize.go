package bgp

import (
	"encoding/binary"
	"net/netip"
)

// Path sanitation, Section 4.1 of the paper: "Kepler sanitizes the collected
// paths by discarding paths with AS loops, private ASNs, or special-purpose
// ASNs", plus the customary bogon-prefix filter applied by every collector
// pipeline.

// bogons4 are IPv4 prefixes that must never be globally routed
// (RFC 6890 special-purpose registry plus multicast/reserved space).
var bogons4 = []netip.Prefix{
	netip.MustParsePrefix("0.0.0.0/8"),
	netip.MustParsePrefix("10.0.0.0/8"),
	netip.MustParsePrefix("100.64.0.0/10"),
	netip.MustParsePrefix("127.0.0.0/8"),
	netip.MustParsePrefix("169.254.0.0/16"),
	netip.MustParsePrefix("172.16.0.0/12"),
	netip.MustParsePrefix("192.0.0.0/24"),
	netip.MustParsePrefix("192.0.2.0/24"),
	netip.MustParsePrefix("192.168.0.0/16"),
	netip.MustParsePrefix("198.18.0.0/15"),
	netip.MustParsePrefix("198.51.100.0/24"),
	netip.MustParsePrefix("203.0.113.0/24"),
	netip.MustParsePrefix("224.0.0.0/4"),
	netip.MustParsePrefix("240.0.0.0/4"),
}

// bogons6 are the equivalent IPv6 never-route prefixes.
var bogons6 = []netip.Prefix{
	netip.MustParsePrefix("::/8"),
	netip.MustParsePrefix("100::/64"),
	netip.MustParsePrefix("2001:db8::/32"),
	netip.MustParsePrefix("fc00::/7"),
	netip.MustParsePrefix("fe80::/10"),
	netip.MustParsePrefix("ff00::/8"),
}

// bogonMask4 is bogons4 as integers, built once: IsBogon runs for every
// announced prefix.
var bogonMask4 = func() []prefix4 {
	out := make([]prefix4, len(bogons4))
	for i, b := range bogons4 {
		out[i] = newPrefix4(b.Addr().As4(), b.Bits())
	}
	return out
}()

// prefix4 is an IPv4 prefix as its address and length.
type prefix4 struct {
	addr uint32
	bits int
}

func newPrefix4(a [4]byte, bits int) prefix4 {
	return prefix4{addr: binary.BigEndian.Uint32(a[:]), bits: bits}
}

// overlaps is netip.Prefix.Overlaps for two IPv4 prefixes: both addresses
// agree on the bits of the shorter prefix. Unmasked addresses are masked
// here, as Overlaps masks them.
func (p prefix4) overlaps(o prefix4) bool {
	mask := ^uint32(0) << (32 - min(p.bits, o.bits)) // zero when either is /0
	return (p.addr^o.addr)&mask == 0
}

// IsBogon reports whether the prefix overlaps reserved, private or
// documentation address space and must be discarded by the input module.
// An IPv4-mapped IPv6 prefix (::ffff:a.b.c.d/n) is judged as the IPv4
// prefix it maps, and one shorter than /96 covers the whole mapped space
// and is a bogon.
func IsBogon(p netip.Prefix) bool {
	if !p.IsValid() {
		return true
	}
	a := p.Addr()
	bits := p.Bits()
	if a.Is4In6() {
		if bits < 96 {
			return true
		}
		a, bits = a.Unmap(), bits-96
	}
	if a.Is4() {
		q := newPrefix4(a.As4(), bits)
		for _, b := range bogonMask4 {
			if b.overlaps(q) {
				return true
			}
		}
		return false
	}
	for _, b := range bogons6 {
		if b.Overlaps(p) {
			return true
		}
	}
	return false
}

// SanitizeError explains why a path or prefix was rejected.
type SanitizeError string

// Error implements the error interface.
func (e SanitizeError) Error() string { return "bgp: sanitize: " + string(e) }

// Rejection reasons returned by Sanitize.
const (
	RejectEmptyPath    SanitizeError = "empty AS path"
	RejectASLoop       SanitizeError = "AS path contains a loop"
	RejectPrivateASN   SanitizeError = "AS path contains a private or special-purpose ASN"
	RejectBogonPrefix  SanitizeError = "bogon prefix"
	RejectDefaultRoute SanitizeError = "default route"
)

// Sanitize validates one announced route (prefix + path) against the input
// module's rules. It returns nil when the route may enter the pipeline.
func Sanitize(prefix netip.Prefix, path Path) error {
	if prefix.Bits() == 0 {
		return RejectDefaultRoute
	}
	if IsBogon(prefix) {
		return RejectBogonPrefix
	}
	if len(path) == 0 {
		return RejectEmptyPath
	}
	if path.ContainsUnroutable() {
		return RejectPrivateASN
	}
	if path.HasLoop() {
		return RejectASLoop
	}
	return nil
}
