package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/metrics"
)

func probeSnapshot() *Snapshot {
	snap := testSnapshot()
	snap.Pending = []core.PendingConfirmation{{
		ID: 7, At: t0, Deadline: t0.Add(10 * time.Minute),
		SignalPoP: colo.FacilityPoP(3), Epicenter: colo.FacilityPoP(3),
		Candidates:   []colo.PoP{colo.FacilityPoP(3)},
		AffectedASes: []bgp.ASN{11, 12}, Paths: 5,
	}, {
		ID: 8, At: t0, Deadline: t0.Add(10 * time.Minute),
		SignalPoP:  colo.CityPoP(2),
		Candidates: []colo.PoP{colo.FacilityPoP(3), colo.IXPPoP(9)},
		Paths:      2,
	}}
	snap.ProbeOutcomes = []core.ProbeOutcome{{
		Pending: core.PendingConfirmation{ID: 5, At: t0.Add(-time.Minute),
			SignalPoP: colo.FacilityPoP(3), Epicenter: colo.FacilityPoP(3),
			Candidates: []colo.PoP{colo.FacilityPoP(3)}},
		Located: true, Epicenter: colo.FacilityPoP(3), Confirmed: true, Checked: true,
	}, {
		Pending: core.PendingConfirmation{ID: 6, At: t0.Add(-time.Minute),
			SignalPoP: colo.CityPoP(2), Candidates: []colo.PoP{colo.CityPoP(2)}},
		Expired: true,
	}}
	return snap
}

func TestProbesEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(probeSnapshot())

	var body struct {
		AsOf    time.Time          `json:"as_of"`
		Count   int                `json:"count"`
		Pending []PendingProbeView `json:"pending"`
		Recent  []ProbeOutcomeView `json:"recent"`
	}
	getJSON(t, ts.URL+"/v1/probes", http.StatusOK, &body)
	if body.Count != 2 || len(body.Pending) != 2 {
		t.Fatalf("pending count = %d/%d, want 2", body.Count, len(body.Pending))
	}
	p := body.Pending[0]
	if p.ID != 7 || p.Epicenter == nil || p.Epicenter.Ref != "facility:3" || p.Epicenter.Name != "Test Facility" {
		t.Fatalf("pending[0] = %+v", p)
	}
	if got := body.Pending[1]; got.Epicenter != nil || len(got.Candidates) != 2 {
		t.Fatalf("disambiguation campaign rendered wrongly: %+v", got)
	}
	if len(body.Recent) != 2 || !body.Recent[0].Located || !body.Recent[1].Expired {
		t.Fatalf("recent outcomes = %+v", body.Recent)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	probe := &metrics.ProbeStats{}
	probe.Campaigns.Store(4)
	probe.Denied.Store(2)
	probe.Pending.Store(1)
	store := &metrics.StoreStats{}
	store.Appends.Store(42)
	svc := &metrics.ServiceStats{}
	srv := New(Options{
		Service: svc,
		Ingest: func() metrics.IngestSnapshot {
			return metrics.IngestSnapshot{Records: 1234, Ops: 5678, Bins: 9}
		},
		Store: func() metrics.StoreSnapshot { return store.Snapshot() },
		Probe: func() metrics.ProbeSnapshot { return probe.Snapshot() },
	})
	srv.PublishSnapshot(probeSnapshot())
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, want := range []string{
		"kepler_ready 1\n",
		"kepler_ingest_records_total 1234\n",
		"kepler_resolved_outages_total 1\n",
		"kepler_open_outages 1\n",
		"kepler_store_appends_total 42\n",
		"kepler_probe_campaigns_total 4\n",
		"kepler_probe_denied_total 2\n",
		"kepler_probe_pending 1\n",
		"kepler_http_requests_total",
		"# TYPE kepler_ingest_records_total counter\n",
		"# TYPE kepler_probe_pending gauge\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every sample line must follow "name value" with a matching TYPE line.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if !strings.Contains(body, "# TYPE "+fields[0]+" ") {
			t.Errorf("sample %q has no TYPE metadata", fields[0])
		}
	}
}

// TestMetricsWithoutOptionalSources pins that a minimally configured
// server still serves a valid exposition (no store, probe or ingest).
func TestMetricsWithoutOptionalSources(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "kepler_ready 0") {
		t.Fatalf("minimal exposition broken: %d %q", resp.StatusCode, raw)
	}
	if strings.Contains(string(raw), "kepler_probe_") {
		t.Fatal("probe metrics rendered without a probe source")
	}
}
