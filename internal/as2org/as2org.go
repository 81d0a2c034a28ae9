// Package as2org maps autonomous systems to the organizations operating
// them, following the approach of Cai et al. (IMC 2010) that the paper uses
// to combine multiple AS-level outage signals into operator-level signals
// (Section 4.3): WHOIS-style registration records are normalized — legal
// suffixes stripped, case folded — and ASNs whose normalized organization
// names coincide become siblings.
package as2org

import (
	"sort"
	"strings"

	"kepler/internal/bgp"
)

// Registration is one WHOIS-style AS registration record.
type Registration struct {
	ASN     bgp.ASN
	OrgName string
	Country string
}

// OrgID identifies an organization within a Table. The zero value means
// "unknown organization".
type OrgID uint32

// Org is one inferred organization.
type Org struct {
	ID      OrgID
	Name    string // representative (longest) registered name
	Country string
	ASNs    []bgp.ASN // sorted ascending
}

// Table is the AS-to-organization mapping.
type Table struct {
	orgs  []Org
	byASN map[bgp.ASN]OrgID
}

// legalSuffixes are stripped from org names before comparison; different
// registries record the same operator with different legal forms.
var legalSuffixes = []string{
	"inc", "incorporated", "llc", "ltd", "limited", "gmbh", "bv", "b.v",
	"sa", "s.a", "ag", "plc", "corp", "corporation", "co", "company",
	"sarl", "srl", "oy", "ab", "as", "nv", "n.v", "pty", "kk",
}

// Normalize canonicalizes an organization name for sibling matching.
func Normalize(name string) string {
	s := strings.ToLower(name)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == ' ':
			b.WriteRune(r)
		case r == '.', r == ',', r == '-', r == '_', r == '/':
			b.WriteRune(' ')
		}
	}
	fields := strings.Fields(b.String())
	// Drop trailing legal-form tokens (possibly several: "Foo Networks Ltd Inc").
	for len(fields) > 1 {
		last := fields[len(fields)-1]
		stripped := false
		for _, suf := range legalSuffixes {
			if last == suf {
				fields = fields[:len(fields)-1]
				stripped = true
				break
			}
		}
		if !stripped {
			break
		}
	}
	return strings.Join(fields, " ")
}

// Build groups registrations into organizations. Registrations with empty
// or unmatchable names become singleton organizations. The result is
// deterministic: organizations sort by normalized name.
func Build(regs []Registration) *Table {
	type group struct {
		name    string // representative
		country string
		asns    map[bgp.ASN]bool
	}
	groups := make(map[string]*group)
	for _, r := range regs {
		key := Normalize(r.OrgName)
		if key == "" {
			// Unnamed: isolate per ASN so nothing accidentally merges.
			key = "\x00asn:" + r.ASN.String()
		}
		g := groups[key]
		if g == nil {
			g = &group{asns: make(map[bgp.ASN]bool)}
			groups[key] = g
		}
		if len(r.OrgName) > len(g.name) {
			g.name = r.OrgName
		}
		if g.country == "" {
			g.country = r.Country
		}
		g.asns[r.ASN] = true
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	t := &Table{byASN: make(map[bgp.ASN]OrgID)}
	for _, k := range keys {
		g := groups[k]
		asns := make([]bgp.ASN, 0, len(g.asns))
		for a := range g.asns {
			asns = append(asns, a)
		}
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		org := Org{
			ID:      OrgID(len(t.orgs) + 1),
			Name:    g.name,
			Country: g.country,
			ASNs:    asns,
		}
		t.orgs = append(t.orgs, org)
		for _, a := range asns {
			t.byASN[a] = org.ID
		}
	}
	return t
}

// NumOrgs returns the organization count.
func (t *Table) NumOrgs() int { return len(t.orgs) }

// Org returns the organization by ID.
func (t *Table) Org(id OrgID) (Org, bool) {
	if id == 0 || int(id) > len(t.orgs) {
		return Org{}, false
	}
	return t.orgs[id-1], true
}

// OrgOf returns the organization operating the ASN, or 0 if unknown.
func (t *Table) OrgOf(asn bgp.ASN) OrgID { return t.byASN[asn] }

// Siblings returns the other ASNs operated by asn's organization.
func (t *Table) Siblings(asn bgp.ASN) []bgp.ASN {
	id := t.byASN[asn]
	if id == 0 {
		return nil
	}
	org := t.orgs[id-1]
	out := make([]bgp.ASN, 0, len(org.ASNs)-1)
	for _, a := range org.ASNs {
		if a != asn {
			out = append(out, a)
		}
	}
	return out
}

// DistinctOrgs counts the distinct known organizations among the ASNs;
// ASNs with no known org each count as their own organization, which is the
// conservative reading Kepler's PoP-level classifier needs ("at least three
// different non-sibling ASes").
func (t *Table) DistinctOrgs(asns []bgp.ASN) int {
	seen := make(map[OrgID]bool)
	unknown := 0
	for _, a := range asns {
		if id := t.byASN[a]; id != 0 {
			seen[id] = true
		} else {
			unknown++
		}
	}
	return len(seen) + unknown
}
