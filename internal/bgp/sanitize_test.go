package bgp

import (
	"math/rand"
	"net/netip"
	"testing"
)

func TestIsBogon(t *testing.T) {
	cases := []struct {
		prefix string
		bogon  bool
	}{
		{"10.0.0.0/8", true},
		{"10.1.2.0/24", true},
		{"192.168.1.0/24", true},
		{"172.20.0.0/16", true},
		{"172.32.0.0/16", false},
		{"8.8.8.0/24", false},
		{"184.84.242.0/24", false},
		{"224.1.0.0/16", true},
		{"240.0.0.0/8", true},
		{"0.0.0.0/32", true},
		{"100.64.0.0/10", true},
		{"100.128.0.0/10", false},
		{"2001:db8::/32", true},
		{"fe80::/10", true},
		{"fc00::/7", true},
		{"2a02:2e0::/32", false},
		{"ff02::/16", true},
		// IPv4-mapped prefixes are judged as the IPv4 prefix they map.
		{"::ffff:10.0.0.0/104", true},
		{"::ffff:192.168.1.0/120", true},
		{"::ffff:0.0.0.0/96", true},
		{"::ffff:184.84.242.0/120", false},
		{"::ffff:8.8.8.8/128", false},
		{"::ffff:0.0.0.0/95", true}, // shorter than /96: the whole mapped space
	}
	for _, c := range cases {
		if got := IsBogon(netip.MustParsePrefix(c.prefix)); got != c.bogon {
			t.Errorf("IsBogon(%s) = %v, want %v", c.prefix, got, c.bogon)
		}
	}
	if !IsBogon(netip.Prefix{}) {
		t.Error("invalid prefix should be bogon")
	}
}

func TestSanitize(t *testing.T) {
	good := netip.MustParsePrefix("184.84.242.0/24")
	cases := []struct {
		name   string
		prefix netip.Prefix
		path   Path
		want   error
	}{
		{"clean", good, Path{3356, 13030, 20940}, nil},
		{"prepended", good, Path{3356, 13030, 13030, 20940}, nil},
		{"empty path", good, nil, RejectEmptyPath},
		{"loop", good, Path{3356, 13030, 3356}, RejectASLoop},
		{"private asn", good, Path{3356, 64512, 20940}, RejectPrivateASN},
		{"special asn", good, Path{3356, 23456, 20940}, RejectPrivateASN},
		{"as0", good, Path{0, 13030}, RejectPrivateASN},
		{"bogon", netip.MustParsePrefix("10.0.0.0/8"), Path{3356}, RejectBogonPrefix},
		{"default route", netip.MustParsePrefix("0.0.0.0/0"), Path{3356}, RejectDefaultRoute},
		{"mapped bogon", netip.MustParsePrefix("::ffff:10.0.0.0/104"), Path{3356}, RejectBogonPrefix},
		{"mapped private", netip.MustParsePrefix("::ffff:192.168.1.0/120"), Path{3356}, RejectBogonPrefix},
		{"mapped any", netip.MustParsePrefix("::ffff:0.0.0.0/96"), Path{3356}, RejectBogonPrefix},
		{"mapped clean", netip.MustParsePrefix("::ffff:184.84.242.0/120"), Path{3356}, nil},
	}
	for _, c := range cases {
		if got := Sanitize(c.prefix, c.path); got != c.want {
			t.Errorf("%s: Sanitize = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSanitizeErrorMessage(t *testing.T) {
	if RejectASLoop.Error() == "" {
		t.Error("empty error message")
	}
}

// referenceIsBogon is IsBogon as netip.Prefix.Overlaps defines it, over
// the same tables, with IPv4-mapped prefixes unmapped first.
func referenceIsBogon(p netip.Prefix) bool {
	if !p.IsValid() {
		return true
	}
	if p.Addr().Is4In6() {
		if p.Bits() < 96 {
			return true
		}
		p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits()-96)
	}
	set := bogons4
	if p.Addr().Is6() {
		set = bogons6
	}
	for _, b := range set {
		if b.Overlaps(p) {
			return true
		}
	}
	return false
}

func checkBogon(t *testing.T, p netip.Prefix) {
	t.Helper()
	if got, want := IsBogon(p), referenceIsBogon(p); got != want {
		t.Fatalf("IsBogon(%v) = %v, Overlaps reference says %v", p, got, want)
	}
}

// TestIsBogonMatchesOverlaps checks the integer-mask fast path against
// netip.Prefix.Overlaps on every bogon's edges, random and unmasked IPv4
// prefixes, IPv6 prefixes, and IPv4-mapped ones.
func TestIsBogonMatchesOverlaps(t *testing.T) {
	for _, b := range bogons4 {
		first := b.Masked().Addr().As4()
		lo := uint32(first[0])<<24 | uint32(first[1])<<16 | uint32(first[2])<<8 | uint32(first[3])
		hi := lo | ^uint32(0)>>b.Bits()
		for _, v := range []uint32{lo - 1, lo, lo + 1, hi - 1, hi, hi + 1} {
			a := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
			for bits := 0; bits <= 32; bits++ {
				checkBogon(t, netip.PrefixFrom(a, bits))          // unmasked
				checkBogon(t, netip.PrefixFrom(a, bits).Masked()) // masked
				checkBogon(t, netip.PrefixFrom(netip.AddrFrom16(a.As16()), 96+bits))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		var a4 [4]byte
		rng.Read(a4[:])
		p := netip.PrefixFrom(netip.AddrFrom4(a4), rng.Intn(33))
		checkBogon(t, p)
		checkBogon(t, p.Masked())
		checkBogon(t, netip.PrefixFrom(netip.AddrFrom16(p.Addr().As16()), rng.Intn(129)))
		var a16 [16]byte
		rng.Read(a16[:])
		switch rng.Intn(3) {
		case 0:
			a16[0] = 0 // inside ::/8
		case 1:
			a16[0], a16[1] = 0x20, 0x01 // near 2001:db8::/32
		}
		checkBogon(t, netip.PrefixFrom(netip.AddrFrom16(a16), rng.Intn(129)))
	}
	checkBogon(t, netip.Prefix{})
}

// referenceHasLoop is HasLoop as the map scan defines it.
func referenceHasLoop(p Path) bool {
	seen := make(map[ASN]int, len(p))
	for i, a := range p {
		if j, ok := seen[a]; ok && i-j > 1 {
			return true
		}
		seen[a] = i
	}
	return false
}

// TestHasLoopMatchesMap checks the pairwise scan against the map scan on
// random paths of 0-64 hops with prepending and non-adjacent repeats,
// including both sides of the 32-hop switch-over.
func TestHasLoopMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	loops := 0
	for i := 0; i < 20000; i++ {
		n := rng.Intn(65)
		if i%4 == 0 {
			n = 31 + rng.Intn(4) // 31..34
		}
		p := make(Path, 0, n)
		alphabet := 1 + rng.Intn(n*n+1)
		for len(p) < n {
			a := ASN(1 + rng.Intn(alphabet))
			if len(p) > 0 && rng.Intn(4) == 0 {
				a = p[len(p)-1] // prepend
			}
			p = append(p, a)
		}
		got := p.HasLoop()
		if want := referenceHasLoop(p); got != want {
			t.Fatalf("HasLoop(%v) = %v, map reference says %v", p, got, want)
		}
		if got {
			loops++
		}
	}
	if loops < 2000 || loops > 18000 {
		t.Fatalf("%d of 20000 random paths loop: the generator no longer tests both answers", loops)
	}
}
