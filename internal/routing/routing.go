// Package routing computes inter-domain routes over a topology.World with
// standard BGP policy semantics and physical failure awareness. It is the
// substrate that turns injected infrastructure outages into the BGP
// dynamics Kepler observes.
//
// Policies follow the Gao–Rexford conditions: routes learned from customers
// are exported to everyone; routes learned from peers or providers are
// exported only to customers. Selection prefers customer routes over peer
// routes over provider routes (LOCAL_PREF), then shortest AS path, then a
// deterministic tie-break that prefers private interconnects over public
// ones and lower neighbor ASNs — modelling the operational practice of
// keeping traffic on PNIs and making every computation reproducible.
//
// Valley-free best paths are computed per origin with the classic
// three-phase relaxation (up via customer→provider edges, once across peer
// edges, down via provider→customer edges). A Mask overlays physical
// failures: failed facilities sever the PNIs they house and the IXP ports
// they terminate; failed IXPs sever their whole fabric; failed ASes and
// individual links model de-peerings and maintenance.
package routing

import (
	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/topology"
)

// Route classes in preference order (smaller is better).
const (
	ClassSelf     uint8 = 0
	ClassCustomer uint8 = 1
	ClassPeer     uint8 = 2
	ClassProvider uint8 = 3
	ClassNone     uint8 = 0xff
)

// Mask is a set of physical failures overlaid on the topology.
type Mask struct {
	Facilities map[colo.FacilityID]bool
	IXPs       map[colo.IXPID]bool
	Links      map[int]bool
	ASes       map[bgp.ASN]bool
}

// NewMask returns an empty (all-healthy) mask.
func NewMask() *Mask {
	return &Mask{
		Facilities: make(map[colo.FacilityID]bool),
		IXPs:       make(map[colo.IXPID]bool),
		Links:      make(map[int]bool),
		ASes:       make(map[bgp.ASN]bool),
	}
}

// Clone returns an independent copy.
func (m *Mask) Clone() *Mask {
	c := NewMask()
	for k := range m.Facilities {
		c.Facilities[k] = true
	}
	for k := range m.IXPs {
		c.IXPs[k] = true
	}
	for k := range m.Links {
		c.Links[k] = true
	}
	for k := range m.ASes {
		c.ASes[k] = true
	}
	return c
}

// Empty reports whether nothing is failed.
func (m *Mask) Empty() bool {
	return len(m.Facilities) == 0 && len(m.IXPs) == 0 && len(m.Links) == 0 && len(m.ASes) == 0
}

// FailFacility marks a facility down.
func (m *Mask) FailFacility(f colo.FacilityID) { m.Facilities[f] = true }

// FailIXP marks an IXP's whole fabric down.
func (m *Mask) FailIXP(ix colo.IXPID) { m.IXPs[ix] = true }

// FailLink marks one interconnect down (de-peering, maintenance).
func (m *Mask) FailLink(id int) { m.Links[id] = true }

// FailAS marks an AS down (all its sessions drop).
func (m *Mask) FailAS(a bgp.ASN) { m.ASes[a] = true }

// RestoreFacility clears a facility failure.
func (m *Mask) RestoreFacility(f colo.FacilityID) { delete(m.Facilities, f) }

// RestoreIXP clears an IXP failure.
func (m *Mask) RestoreIXP(ix colo.IXPID) { delete(m.IXPs, ix) }

// RestoreLink clears a link failure.
func (m *Mask) RestoreLink(id int) { delete(m.Links, id) }

// RestoreAS clears an AS failure.
func (m *Mask) RestoreAS(a bgp.ASN) { delete(m.ASes, a) }

// LinkUp reports whether the interconnect is usable under the mask. A PNI
// dies with its building; an IXP link dies with the exchange fabric or with
// either side's port facility.
func (m *Mask) LinkUp(l *topology.Interconnect) bool {
	if m.Links[l.ID] {
		return false
	}
	if m.ASes[l.A] || m.ASes[l.B] {
		return false
	}
	if l.Facility != 0 && m.Facilities[l.Facility] {
		return false
	}
	if l.IXP != 0 {
		if m.IXPs[l.IXP] {
			return false
		}
		if l.AFac != 0 && m.Facilities[l.AFac] {
			return false
		}
		if l.BFac != 0 && m.Facilities[l.BFac] {
			return false
		}
	}
	return true
}
