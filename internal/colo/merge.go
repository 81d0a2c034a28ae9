package colo

import (
	"net/netip"
	"sort"
	"strings"

	"kepler/internal/bgp"
	"kepler/internal/geo"
)

// FacilityRecord is one facility entry as published by a single data source
// (PeeringDB, DataCenterMap, an operator website, ...). Records from
// different sources describing the same building are unified by
// postcode+country.
type FacilityRecord struct {
	Source   string
	Name     string
	Operator string
	Addr     Address
	CityHint string // free-form city identifier, geocoded during the merge
	Members  []bgp.ASN
}

// IXPRecord is one IXP entry from a single data source. Records are
// unified by URL when present, else by name+city.
type IXPRecord struct {
	Source        string
	Name          string
	URL           string
	CityHint      string
	ASNs          []bgp.ASN      // IXP-operated ASNs (route servers etc.)
	LANs          []netip.Prefix // peering LAN prefixes
	Members       []bgp.ASN
	FacilityAddrs []Address // buildings hosting fabric, by address
}

// Builder accumulates records from all sources and produces a merged Map.
type Builder struct {
	world *geo.World
	facs  []FacilityRecord
	ixps  []IXPRecord
}

// NewBuilder returns a Builder geocoding city hints against world.
func NewBuilder(world *geo.World) *Builder {
	return &Builder{world: world}
}

// AddFacility queues one facility record.
func (b *Builder) AddFacility(r FacilityRecord) { b.facs = append(b.facs, r) }

// AddIXP queues one IXP record.
func (b *Builder) AddIXP(r IXPRecord) { b.ixps = append(b.ixps, r) }

// Build merges all queued records into a Map. The merge is deterministic:
// facilities sort by address key, IXPs by merge key, and member lists are
// deduplicated and sorted.
func (b *Builder) Build() *Map {
	m := &Map{
		facByASN:  make(map[bgp.ASN][]FacilityID),
		ixpByASN:  make(map[bgp.ASN][]IXPID),
		facByCity: make(map[geo.CityID][]FacilityID),
		ixpByCity: make(map[geo.CityID][]IXPID),
		facKey:    make(map[string]FacilityID),
		ixpByASN2: make(map[bgp.ASN]IXPID),
	}

	// --- merge facilities by address key ---
	facGroups := make(map[string][]FacilityRecord)
	for _, r := range b.facs {
		facGroups[r.Addr.Key()] = append(facGroups[r.Addr.Key()], r)
	}
	facKeys := make([]string, 0, len(facGroups))
	for k := range facGroups {
		facKeys = append(facKeys, k)
	}
	sort.Strings(facKeys)

	for _, key := range facKeys {
		group := facGroups[key]
		f := Facility{Addr: group[0].Addr}
		memberSet := make(map[bgp.ASN]bool)
		srcSet := make(map[string]bool)
		nameSet := make(map[string]bool)
		for _, r := range group {
			// Longest name wins: sources abbreviate differently and the
			// longest form is usually the most descriptive. All variants
			// are kept as AKA names for entity recognition.
			if r.Name != "" {
				nameSet[r.Name] = true
			}
			if len(r.Name) > len(f.Name) {
				f.Name = r.Name
			}
			if f.Operator == "" {
				f.Operator = r.Operator
			}
			if f.Addr.Street == "" {
				f.Addr.Street = r.Addr.Street
			}
			if f.City == geo.NoCity && r.CityHint != "" {
				if c, ok := b.world.Resolve(r.CityHint); ok {
					f.City = c.ID
					f.Coord = c.Coord
				}
			}
			for _, a := range r.Members {
				memberSet[a] = true
			}
			srcSet[r.Source] = true
		}
		f.Members = sortedASNs(memberSet)
		f.Sources = sortedStrings(srcSet)
		delete(nameSet, f.Name)
		f.AKA = sortedStrings(nameSet)
		f.ID = FacilityID(len(m.facilities) + 1)
		m.facilities = append(m.facilities, f)
		m.facKey[key] = f.ID
	}

	// --- merge IXPs by URL (fallback: name+city) ---
	ixpGroups := make(map[string][]IXPRecord)
	ixpKeyOf := func(r IXPRecord) string {
		if r.URL != "" {
			return "url:" + strings.ToLower(r.URL)
		}
		return "nc:" + strings.ToLower(r.Name) + "/" + strings.ToLower(r.CityHint)
	}
	for _, r := range b.ixps {
		k := ixpKeyOf(r)
		ixpGroups[k] = append(ixpGroups[k], r)
	}
	ixpKeys := make([]string, 0, len(ixpGroups))
	for k := range ixpGroups {
		ixpKeys = append(ixpKeys, k)
	}
	sort.Strings(ixpKeys)

	for _, key := range ixpKeys {
		group := ixpGroups[key]
		ix := IXP{}
		memberSet := make(map[bgp.ASN]bool)
		asnSet := make(map[bgp.ASN]bool)
		lanSet := make(map[string]netip.Prefix)
		facSet := make(map[FacilityID]bool)
		srcSet := make(map[string]bool)
		nameSet := make(map[string]bool)
		for _, r := range group {
			if r.Name != "" {
				nameSet[r.Name] = true
			}
			if len(r.Name) > len(ix.Name) {
				ix.Name = r.Name
			}
			if ix.URL == "" {
				ix.URL = r.URL
			}
			if ix.City == geo.NoCity && r.CityHint != "" {
				if c, ok := b.world.Resolve(r.CityHint); ok {
					ix.City = c.ID
				}
			}
			for _, a := range r.Members {
				memberSet[a] = true
			}
			for _, a := range r.ASNs {
				asnSet[a] = true
			}
			for _, p := range r.LANs {
				lanSet[p.String()] = p
			}
			for _, addr := range r.FacilityAddrs {
				if fid, ok := m.facKey[addr.Key()]; ok {
					facSet[fid] = true
				}
			}
			srcSet[r.Source] = true
		}
		ix.Members = sortedASNs(memberSet)
		ix.ASNs = sortedASNs(asnSet)
		ix.Sources = sortedStrings(srcSet)
		delete(nameSet, ix.Name)
		ix.AKA = sortedStrings(nameSet)
		lanKeys := make([]string, 0, len(lanSet))
		for k := range lanSet {
			lanKeys = append(lanKeys, k)
		}
		sort.Strings(lanKeys)
		for _, k := range lanKeys {
			ix.LANs = append(ix.LANs, lanSet[k])
		}
		facIDs := make([]FacilityID, 0, len(facSet))
		for f := range facSet {
			facIDs = append(facIDs, f)
		}
		sort.Slice(facIDs, func(i, j int) bool { return facIDs[i] < facIDs[j] })
		ix.Facilities = facIDs

		ix.ID = IXPID(len(m.ixps) + 1)
		m.ixps = append(m.ixps, ix)
	}

	// --- build indices ---
	for i := range m.facilities {
		f := &m.facilities[i]
		for _, a := range f.Members {
			m.facByASN[a] = append(m.facByASN[a], f.ID)
		}
		if f.City != geo.NoCity {
			m.facByCity[f.City] = append(m.facByCity[f.City], f.ID)
		}
	}
	for i := range m.ixps {
		ix := &m.ixps[i]
		for _, a := range ix.Members {
			m.ixpByASN[a] = append(m.ixpByASN[a], ix.ID)
		}
		for _, a := range ix.ASNs {
			m.ixpByASN2[a] = ix.ID
		}
		if ix.City != geo.NoCity {
			m.ixpByCity[ix.City] = append(m.ixpByCity[ix.City], ix.ID)
		}
	}
	return m
}

func sortedASNs(set map[bgp.ASN]bool) []bgp.ASN {
	out := make([]bgp.ASN, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedStrings(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
