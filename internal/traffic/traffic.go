// Package traffic models inter-domain traffic for the remote-impact
// analysis of Section 6.4: a gravity-model demand matrix between ASes,
// forwarding of each demand along the routing engine's current paths
// (direction-sensitive, so asymmetric routing emerges naturally when the
// forward and reverse paths cross different IXPs), per-member volume
// accounting at an observed IXP, and an IPFIX-style 1-in-10K packet
// sampler with deterministic sampling noise.
package traffic

import (
	"math"
	"math/rand"
	"sort"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/routing"
	"kepler/internal/topology"
)

// Demand is one unidirectional traffic demand.
type Demand struct {
	From, To bgp.ASN
	Gbps     float64
}

// Matrix is a set of demands.
type Matrix struct {
	Demands []Demand
}

// weight returns the gravity-model mass of an AS: content networks push
// the most traffic, eyeball/stub networks pull it, transit carries it.
func weight(a *topology.AS) float64 {
	switch a.Type {
	case topology.Content:
		return 30
	case topology.Tier1:
		return 8
	case topology.Tier2:
		return 5
	case topology.Stub:
		return 2
	default:
		return 1
	}
}

// BuildMatrix derives a gravity-model demand matrix over the world's ASes.
// Only pairs with nonzero gravity above a floor are kept, and volumes are
// normalized so the heaviest demand is maxGbps. Content→stub demands
// dominate, matching the paper's description of today's traffic mix.
func BuildMatrix(w *topology.World, maxGbps float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	var demands []Demand
	var heaviest float64
	for _, src := range w.ASes {
		for _, dst := range w.ASes {
			if src.ASN == dst.ASN {
				continue
			}
			g := weight(src) * weight(dst)
			// Directional skew: content sources push ~4x what they pull.
			if src.Type == topology.Content && dst.Type != topology.Content {
				g *= 4
			}
			// Sparsify small demands to keep the matrix tractable.
			if g < 60 && rng.Float64() > 0.15 {
				continue
			}
			v := g * (0.5 + rng.Float64())
			demands = append(demands, Demand{From: src.ASN, To: dst.ASN, Gbps: v})
			if v > heaviest {
				heaviest = v
			}
		}
	}
	if heaviest > 0 {
		scale := maxGbps / heaviest
		for i := range demands {
			demands[i].Gbps *= scale
		}
	}
	return &Matrix{Demands: demands}
}

// Total returns the aggregate demand volume.
func (m *Matrix) Total() float64 {
	var sum float64
	for _, d := range m.Demands {
		sum += d.Gbps
	}
	return sum
}

// Forwarder resolves the path of each demand under a routing state.
// Tables are computed lazily per destination origin and cached, so
// repeated volume queries under the same mask are cheap.
type Forwarder struct {
	eng    *routing.Engine
	mask   *routing.Mask
	tables map[bgp.ASN]*routing.Table
}

// NewForwarder creates a forwarder for the given failure state (nil mask
// means healthy).
func NewForwarder(eng *routing.Engine, mask *routing.Mask) *Forwarder {
	return &Forwarder{eng: eng, mask: mask, tables: make(map[bgp.ASN]*routing.Table)}
}

func (f *Forwarder) table(origin bgp.ASN) *routing.Table {
	t, ok := f.tables[origin]
	if !ok {
		t = f.eng.ComputeOrigin(origin, f.mask)
		f.tables[origin] = t
	}
	return t
}

// PathOf returns the forward route of a demand, ok=false if unreachable.
// Traffic From→To follows From's best route toward To's origin — the
// direction IPFIX meters at an IXP see.
func (f *Forwarder) PathOf(d Demand) (*routing.Route, bool) {
	return f.eng.Route(f.table(d.To), d.From)
}

// CrossesIXP reports whether the demand's forward path crosses the IXP.
func (f *Forwarder) CrossesIXP(d Demand, ix colo.IXPID) bool {
	r, ok := f.PathOf(d)
	if !ok {
		return false
	}
	for _, l := range r.Links {
		if l != nil && l.IXP == ix {
			return true
		}
	}
	return false
}

// VolumeAt sums the demand volume whose forward path crosses the IXP.
func (f *Forwarder) VolumeAt(m *Matrix, ix colo.IXPID) float64 {
	var sum float64
	for _, d := range m.Demands {
		if f.CrossesIXP(d, ix) {
			sum += d.Gbps
		}
	}
	return sum
}

// PerMember returns the volume each member sources or sinks across the
// IXP's fabric under this routing state.
func (f *Forwarder) PerMember(m *Matrix, ix colo.IXPID) map[bgp.ASN]float64 {
	out := make(map[bgp.ASN]float64)
	for _, d := range m.Demands {
		if f.CrossesIXP(d, ix) {
			out[d.From] += d.Gbps
			out[d.To] += d.Gbps
		}
	}
	return out
}

// ReverseImpacted reports whether the reverse path of d differs between
// this forwarder's failure state and the baseline.
func (f *Forwarder) ReverseImpacted(d Demand, base *Forwarder) bool {
	rev := Demand{From: d.To, To: d.From}
	rb, ok1 := base.PathOf(rev)
	rf, ok2 := f.PathOf(rev)
	if ok1 != ok2 {
		return true
	}
	if !ok1 {
		return false
	}
	return !rb.Equal(rf)
}

// ReverseCouplingFactor is the throughput penalty a TCP flow suffers while
// its reverse path is rerouting/inflated: loss during convergence plus the
// RTT increase shrink the achievable rate even though the forward path is
// intact. This coupling is what makes a local outage visible as a traffic
// drop at a remote exchange (Section 6.4).
const ReverseCouplingFactor = 0.45

// PortHeadroom is the capacity factor of a member's IXP port relative to
// its steady-state load. Best practice keeps ports under 50% utilization,
// but the paper observes that price pressure forces operators past such
// guidelines — "the capacity of neither [IXP] is sufficient for the total
// traffic of the ISP" (Section 6.4) — so during incidents there is no
// usable spare peering capacity and the overflow rides the upstream.
const PortHeadroom = 1.0

// CappedCoupledVolumeAt models what an IPFIX meter at the IXP sees during a
// remote incident: surviving flows discounted by reverse-path coupling, and
// every member's total load capped at PortHeadroom times its steady-state
// volume — overflow from rerouted flows spills to upstream transit instead
// of the exchange (the paper's explanation for why a remote outage shows up
// as a traffic *drop*, not a surge).
func (f *Forwarder) CappedCoupledVolumeAt(m *Matrix, ix colo.IXPID, base *Forwarder) float64 {
	baseMember := base.PerMember(m, ix)
	type flow struct {
		d Demand
		v float64
	}
	var flows []flow
	load := map[bgp.ASN]float64{}
	for _, d := range m.Demands {
		if !f.CrossesIXP(d, ix) {
			continue
		}
		v := d.Gbps
		if f.ReverseImpacted(d, base) {
			v *= ReverseCouplingFactor
		}
		flows = append(flows, flow{d: d, v: v})
		load[d.From] += v
		load[d.To] += v
	}
	// Per-member scale: ports saturate at PortHeadroom × steady state.
	// Members with no steady-state presence get a small allowance — their
	// reroute onto the exchange is opportunistic, not provisioned.
	var maxBase float64
	for _, v := range baseMember {
		if v > maxBase {
			maxBase = v
		}
	}
	floor := 0.02 * maxBase
	scale := func(a bgp.ASN) float64 {
		cap_ := PortHeadroom * baseMember[a]
		if cap_ < floor {
			cap_ = floor
		}
		if load[a] <= cap_ || load[a] == 0 {
			return 1
		}
		return cap_ / load[a]
	}
	var sum float64
	for _, fl := range flows {
		s := scale(fl.d.From)
		if s2 := scale(fl.d.To); s2 < s {
			s = s2
		}
		sum += fl.v * s
	}
	return sum
}

// PerMemberCoupled is PerMember with the reverse-path coupling discount.
func (f *Forwarder) PerMemberCoupled(m *Matrix, ix colo.IXPID, base *Forwarder) map[bgp.ASN]float64 {
	out := make(map[bgp.ASN]float64)
	for _, d := range m.Demands {
		if !f.CrossesIXP(d, ix) {
			continue
		}
		v := d.Gbps
		if f.ReverseImpacted(d, base) {
			v *= ReverseCouplingFactor
		}
		out[d.From] += v
		out[d.To] += v
	}
	return out
}

// Asymmetric reports whether the demand pair (a→b, b→a) crosses ixA in one
// direction and ixB in the other — the asymmetric-path condition the paper
// identifies as the main cause of remote traffic loss (Section 6.4).
func (f *Forwarder) Asymmetric(a, b bgp.ASN, ixA, ixB colo.IXPID) bool {
	fwd := f.CrossesIXP(Demand{From: a, To: b}, ixA) && !f.CrossesIXP(Demand{From: a, To: b}, ixB)
	rev := f.CrossesIXP(Demand{From: b, To: a}, ixB) && !f.CrossesIXP(Demand{From: b, To: a}, ixA)
	return fwd && rev
}

// SampleRate is the paper's IPFIX sampling rate at EU-IXP (1 in 10K).
const SampleRate = 10000

// Sampled applies deterministic 1/10K-style sampling noise to a true
// volume: the estimate is the true value perturbed by the relative
// standard error of packet sampling at this volume.
func Sampled(trueGbps float64, seed int64) float64 {
	if trueGbps <= 0 {
		return 0
	}
	// Approximate packet count for the averaging window; the relative
	// error of count sampling is 1/sqrt(sampled packets).
	packets := trueGbps * 1e9 / 8 / 800 // ~800B average packet
	sampled := packets / SampleRate
	if sampled < 1 {
		sampled = 1
	}
	rel := 1 / math.Sqrt(sampled)
	rng := rand.New(rand.NewSource(seed))
	return trueGbps * (1 + rel*(rng.Float64()*2-1))
}

// TopLosers returns the n members with the largest volume drop between two
// per-member maps, sorted by loss descending.
func TopLosers(before, after map[bgp.ASN]float64, n int) []bgp.ASN {
	type loss struct {
		asn bgp.ASN
		d   float64
	}
	var ls []loss
	for asn, b := range before {
		if d := b - after[asn]; d > 0 {
			ls = append(ls, loss{asn, d})
		}
	}
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].d != ls[j].d {
			return ls[i].d > ls[j].d
		}
		return ls[i].asn < ls[j].asn
	})
	if n > len(ls) {
		n = len(ls)
	}
	out := make([]bgp.ASN, n)
	for i := 0; i < n; i++ {
		out[i] = ls[i].asn
	}
	return out
}
