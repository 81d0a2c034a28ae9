package core

import (
	"net/netip"
	"sort"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
)

// scriptedProber is a deterministic in-process Prober: Submit records the
// campaign and, unless hold is set, synthesizes a verdict via the answer
// function; Collect drains completed verdicts sorted by id.
type scriptedProber struct {
	answer func(ProbeRequest) []ProbeResult
	hold   bool // never answer: exercises the TTL path
	reqs   []ProbeRequest
	ready  []ProbeVerdict
}

func (p *scriptedProber) Submit(req ProbeRequest) {
	p.reqs = append(p.reqs, req)
	if p.hold {
		return
	}
	results := make([]ProbeResult, len(req.Candidates))
	for i, c := range req.Candidates {
		results[i] = ProbeResult{Target: c}
	}
	if p.answer != nil {
		results = p.answer(req)
	}
	p.ready = append(p.ready, ProbeVerdict{ID: req.ID, Results: results})
}

// answering returns a scriptedProber that answers every candidate of every
// campaign with one verdict.
func answering(confirmed, hasData bool) *scriptedProber {
	return &scriptedProber{answer: func(req ProbeRequest) []ProbeResult {
		out := make([]ProbeResult, len(req.Candidates))
		for i, c := range req.Candidates {
			out[i] = ProbeResult{Target: c, Confirmed: confirmed, HasData: hasData}
		}
		return out
	}}
}

func (p *scriptedProber) Collect(time.Time) []ProbeVerdict {
	out := p.ready
	p.ready = nil
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// divertAll re-announces every seeded path around the facility, raising the
// full-divergence signal of TestStablePromotionAndSignal.
func divertAll(t *testing.T, d *Engine, at time.Time, nPer int) {
	t.Helper()
	pfx := 0
	for _, near := range []bgp.ASN{11, 12, 13, 14} {
		for k := 0; k < nPer; k++ {
			far := bgp.ASN(21 + (pfx % 4))
			prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(pfx >> 8), byte(pfx), 0}), 24).String()
			d.Process(mkUpdate(at, near, prefix, bgp.Path{near, 99, far}, nil))
			pfx++
		}
	}
}

func keepalive(d *Engine, at time.Time) {
	d.Process(mkUpdate(at, 99, "198.41.0.0/16", bgp.Path{99, 98}, nil))
}

// TestProbeParkAndPromote pins the async happy path: the signal bin parks a
// confirmation campaign instead of opening an outage; the verdict promotes
// it at the next bin close with the original signal timing, firing the
// probe-requested and probe-confirmed hooks around the outage-opened hook.
func TestProbeParkAndPromote(t *testing.T) {
	dict, cmap, fid := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	pr := &scriptedProber{answer: func(req ProbeRequest) []ProbeResult {
		out := make([]ProbeResult, len(req.Candidates))
		for i, c := range req.Candidates {
			out[i] = ProbeResult{Target: c, Confirmed: true, HasData: true}
		}
		return out
	}}
	d.SetProber(pr)

	var requested []PendingConfirmation
	var outcomes []ProbeOutcome
	var opened []OutageStatus
	d.SetHooks(Hooks{
		ProbeRequested: func(p PendingConfirmation) { requested = append(requested, p) },
		ProbeConfirmed: func(o ProbeOutcome) { outcomes = append(outcomes, o) },
		OutageOpened: func(s OutageStatus) {
			if len(outcomes) == 0 {
				t.Error("OutageOpened fired before ProbeConfirmed")
			}
			opened = append(opened, s)
		},
	})

	at := seedStable(t, d, 3)
	failAt := at.Add(time.Hour)
	divertAll(t, d, failAt, 3)
	keepalive(d, failAt.Add(90*time.Second)) // closes the signal bin

	if len(pr.reqs) != 1 {
		t.Fatalf("campaigns submitted = %d, want 1", len(pr.reqs))
	}
	req := pr.reqs[0]
	if req.Epicenter != colo.FacilityPoP(fid) {
		t.Fatalf("campaign epicenter = %v, want facility:%d", req.Epicenter, fid)
	}
	if len(requested) != 1 || requested[0].ID != req.ID {
		t.Fatalf("ProbeRequested hooks = %+v", requested)
	}
	if got := d.PendingConfirmations(); len(got) != 1 || got[0].Paths != 12 {
		t.Fatalf("pending = %+v, want one 12-path confirmation", got)
	}
	if n := len(d.OpenOutages()); n != 0 {
		t.Fatalf("outage opened before the verdict arrived (%d open)", n)
	}

	// Next bin close collects the verdict and promotes.
	keepalive(d, failAt.Add(3*time.Minute))
	if len(d.PendingConfirmations()) != 0 {
		t.Fatal("pending not drained after verdict")
	}
	if len(outcomes) != 1 || !outcomes[0].Located || !outcomes[0].Confirmed || !outcomes[0].Checked {
		t.Fatalf("outcome = %+v, want located+confirmed", outcomes)
	}
	if len(opened) != 1 || opened[0].PoP != colo.FacilityPoP(fid) {
		t.Fatalf("opened = %+v, want facility:%d", opened, fid)
	}
	// The promoted outage keeps the original signal timing: it began within
	// the bin that raised the signal, not the bin that delivered the verdict.
	sigBin := failAt.Truncate(time.Minute).Add(time.Minute)
	if want := sigBin.Add(-time.Minute); !opened[0].Start.Equal(want) {
		t.Fatalf("promoted Start = %v, want %v", opened[0].Start, want)
	}
}

// TestProbeRefutedSuppresses pins the false-positive filter: a verdict that
// contradicts the control plane drops the parked group without an outage.
func TestProbeRefutedSuppresses(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	d.SetProber(answering(false, true))
	var outcomes []ProbeOutcome
	d.SetHooks(Hooks{ProbeConfirmed: func(o ProbeOutcome) { outcomes = append(outcomes, o) }})

	at := seedStable(t, d, 3)
	divertAll(t, d, at.Add(time.Hour), 3)
	keepalive(d, at.Add(time.Hour+90*time.Second))
	keepalive(d, at.Add(time.Hour+3*time.Minute))

	if len(outcomes) != 1 || outcomes[0].Located || !outcomes[0].Checked {
		t.Fatalf("outcome = %+v, want checked+unlocated", outcomes)
	}
	if n := len(d.OpenOutages()); n != 0 {
		t.Fatalf("refuted signal still opened %d outages", n)
	}
	outs := d.Flush(at.Add(2 * time.Hour))
	if len(outs) != 0 {
		t.Fatalf("refuted signal produced outages at flush: %+v", outs)
	}
}

// TestProbeNoDataPromotesUnvalidated pins the budget-exhaustion shape: a
// verdict with no measurement data leaves the control-plane inference
// standing, unvalidated.
func TestProbeNoDataPromotesUnvalidated(t *testing.T) {
	dict, cmap, fid := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	pr := &scriptedProber{} // default answer: HasData=false everywhere
	d.SetProber(pr)

	at := seedStable(t, d, 3)
	divertAll(t, d, at.Add(time.Hour), 3)
	keepalive(d, at.Add(time.Hour+90*time.Second))
	keepalive(d, at.Add(time.Hour+3*time.Minute))

	open := d.OpenOutageStatuses()
	if len(open) != 1 || open[0].PoP != colo.FacilityPoP(fid) {
		t.Fatalf("open = %+v, want facility:%d", open, fid)
	}
	if open[0].Confirmed {
		t.Fatal("no-data promotion must stay unconfirmed")
	}
	outs := d.Flush(at.Add(2 * time.Hour))
	if len(outs) != 1 || outs[0].DataPlaneChecked || outs[0].Confirmed {
		t.Fatalf("flush = %+v, want one unvalidated outage", outs)
	}
}

// TestProbeTTLExpiry is the dedicated TTL scenario: a prober that never
// answers lets the pending outlive ProbeTTL, after which it expires with a
// hook and no outage — and the pipeline keeps running normally.
func TestProbeTTLExpiry(t *testing.T) {
	dict, cmap, _ := microWorld(t)
	cfg := DefaultConfig()
	cfg.ProbeTTL = 5 * time.Minute
	d := New(cfg, dict, cmap, nil)
	pr := &scriptedProber{hold: true}
	d.SetProber(pr)
	var expired []ProbeOutcome
	d.SetHooks(Hooks{ProbeExpired: func(o ProbeOutcome) { expired = append(expired, o) }})

	at := seedStable(t, d, 3)
	failAt := at.Add(time.Hour)
	divertAll(t, d, failAt, 3)
	keepalive(d, failAt.Add(90*time.Second))
	if len(d.PendingConfirmations()) != 1 {
		t.Fatal("campaign not parked")
	}

	// Under the TTL: still pending.
	keepalive(d, failAt.Add(4*time.Minute))
	if len(expired) != 0 || len(d.PendingConfirmations()) != 1 {
		t.Fatalf("expired early: hooks=%d pending=%d", len(expired), len(d.PendingConfirmations()))
	}
	// Past it: expired, dropped, nothing reported.
	keepalive(d, failAt.Add(8*time.Minute))
	if len(expired) != 1 || !expired[0].Expired || expired[0].Located {
		t.Fatalf("expiry outcome = %+v", expired)
	}
	if len(d.PendingConfirmations()) != 0 {
		t.Fatal("expired pending not dropped")
	}
	outs := d.Flush(failAt.Add(time.Hour))
	if len(outs) != 0 {
		t.Fatalf("expired signal produced outages: %+v", outs)
	}
}

// TestProbeFlushSettles pins that Flush collects the final bin's campaigns
// before closing: a signal in the last bin of the stream still reaches the
// outage set when the prober answers.
func TestProbeFlushSettles(t *testing.T) {
	dict, cmap, fid := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	pr := &scriptedProber{answer: func(req ProbeRequest) []ProbeResult {
		out := make([]ProbeResult, len(req.Candidates))
		for i, c := range req.Candidates {
			out[i] = ProbeResult{Target: c, Confirmed: true, HasData: true}
		}
		return out
	}}
	d.SetProber(pr)

	at := seedStable(t, d, 3)
	failAt := at.Add(time.Hour)
	divertAll(t, d, failAt, 3)
	// No further records: the campaign parks inside Flush's own bin close.
	outs := d.Flush(failAt.Add(2 * time.Minute))
	if len(outs) != 1 || outs[0].PoP != colo.FacilityPoP(fid) || !outs[0].Confirmed {
		t.Fatalf("flush = %+v, want one confirmed outage at facility:%d", outs, fid)
	}
}

// TestAffectedFractionDedup is the regression for the stable-count
// accounting: duplicate divert events of one (path, link) — a path
// oscillating within the bin — must not inflate the affected fraction.
func TestAffectedFractionDedup(t *testing.T) {
	dict, cmap, fid := microWorld(t)
	d := New(DefaultConfig(), dict, cmap, nil)
	seedStable(t, d, 3)

	pop := colo.FacilityPoP(fid)
	// One real diverted path, duplicated three times in the bin's records.
	rec := divertRec{
		key:  PathKey{Peer: 11, Prefix: netip.MustParsePrefix("20.0.0.0/24")},
		ends: popEnd{near: 11, far: 21},
	}
	g := mkGroup(pop, []divertRec{rec, rec, rec})

	frac, n := d.inv.affectedFractionWithFarAt(g, fid)
	if n == 0 {
		t.Fatal("no stable baseline at the facility")
	}
	// 12 stable paths were seeded with far ends in the facility; exactly one
	// distinct path diverted.
	if want := 1.0 / 12.0; frac != want {
		t.Fatalf("fraction = %v, want %v (duplicates must count once)", frac, want)
	}
}
