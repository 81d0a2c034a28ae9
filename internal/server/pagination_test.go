package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"testing"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/geo"
)

// bigSnapshot builds a snapshot with n resolved outages and 2n incidents of
// alternating kinds, so cursor windows and kind filtering compose.
func bigSnapshot(n int) *Snapshot {
	var outs []core.Outage
	var incs []core.Incident
	for i := 0; i < n; i++ {
		outs = append(outs, core.Outage{
			PoP: colo.FacilityPoP(colo.FacilityID(i + 1)), SignalPoP: colo.FacilityPoP(colo.FacilityID(i + 1)),
			Start: t0.Add(time.Duration(i) * time.Hour), End: t0.Add(time.Duration(i)*time.Hour + 30*time.Minute),
			AffectedASes: []bgp.ASN{bgp.ASN(100 + i)}, DivertedPaths: i + 1,
		})
		incs = append(incs,
			core.Incident{Time: t0, Kind: core.IncidentPoP, PoP: colo.FacilityPoP(colo.FacilityID(i + 1))},
			core.Incident{Time: t0, Kind: core.IncidentLink, PoP: colo.CityPoP(geo.CityID(i + 1))},
		)
	}
	return BuildSnapshotFrom(t0, nil, outs, incs)
}

type pageResp struct {
	Count     int          `json:"count"`
	Total     int          `json:"total"`
	NextAfter uint64       `json:"next_after"`
	Outages   []OutageView `json:"outages"`
}

func outageIDs(outs []OutageView) []uint64 {
	ids := make([]uint64, len(outs))
	for i, o := range outs {
		ids[i] = o.ID
	}
	return ids
}

func TestOutagesPagination(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(bigSnapshot(5))

	// Page through with limit 2: 2+2+1, cursors chaining.
	var page pageResp
	getJSON(t, ts.URL+"/v1/outages?limit=2", http.StatusOK, &page)
	if page.Count != 2 || page.Total != 5 || page.NextAfter != 2 {
		t.Fatalf("page 1 = %+v", page)
	}
	if ids := outageIDs(page.Outages); ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("page 1 ids = %v", ids)
	}
	cursor := page.NextAfter
	page = pageResp{}
	getJSON(t, fmt.Sprintf("%s/v1/outages?limit=2&after=%d", ts.URL, cursor), http.StatusOK, &page)
	if page.Count != 2 || page.NextAfter != 4 {
		t.Fatalf("page 2 = %+v", page)
	}
	cursor = page.NextAfter
	page = pageResp{}
	getJSON(t, fmt.Sprintf("%s/v1/outages?limit=2&after=%d", ts.URL, cursor), http.StatusOK, &page)
	if page.Count != 1 || page.NextAfter != 0 {
		t.Fatalf("final page = %+v (next_after must be omitted at the end)", page)
	}
	if page.Outages[0].ID != 5 {
		t.Fatalf("final page ids = %v", outageIDs(page.Outages))
	}

	// Cursor at or past the end: empty page, not an error.
	page = pageResp{}
	getJSON(t, ts.URL+"/v1/outages?after=5", http.StatusOK, &page)
	if page.Count != 0 || page.Total != 5 {
		t.Errorf("past-end page = %+v", page)
	}
	page = pageResp{}
	getJSON(t, ts.URL+"/v1/outages?after=99", http.StatusOK, &page)
	if page.Count != 0 {
		t.Errorf("far-past-end page = %+v", page)
	}

	// No params: full history, ids still assigned.
	page = pageResp{}
	getJSON(t, ts.URL+"/v1/outages", http.StatusOK, &page)
	if page.Count != 5 || page.Outages[4].ID != 5 {
		t.Errorf("unpaginated = %+v", page)
	}
}

func TestPaginationRejectsMalformedCursors(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(bigSnapshot(3))

	for _, bad := range []string{
		"/v1/outages?limit=0",
		"/v1/outages?limit=-5",
		"/v1/outages?limit=abc",
		"/v1/outages?after=-1",
		"/v1/outages?after=xyz",
		"/v1/outages?after=1.5",
		"/v1/incidents?limit=0",
		"/v1/incidents?after=bogus",
	} {
		var body map[string]string
		getJSON(t, ts.URL+bad, http.StatusBadRequest, &body)
		if body["error"] == "" {
			t.Errorf("%s: 400 without JSON error body", bad)
		}
	}
}

func TestIncidentsPaginationWithKindFilter(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	srv.PublishSnapshot(bigSnapshot(4)) // ids 1..8, odd=pop even=link

	type incResp struct {
		Count     int            `json:"count"`
		Total     int            `json:"total"`
		NextAfter uint64         `json:"next_after"`
		Incidents []IncidentView `json:"incidents"`
	}
	// Unfiltered paging.
	var resp incResp
	getJSON(t, ts.URL+"/v1/incidents?limit=3", http.StatusOK, &resp)
	if resp.Count != 3 || resp.Total != 8 || resp.NextAfter != 3 {
		t.Fatalf("page 1 = %+v", resp)
	}
	resp = incResp{}
	getJSON(t, ts.URL+"/v1/incidents?limit=10&after=3", http.StatusOK, &resp)
	if resp.Count != 5 || resp.NextAfter != 0 {
		t.Fatalf("page 2 = %+v", resp)
	}

	// Kind filter selects within the cursor window; ids stay global, so the
	// cursor a client chains is still valid.
	resp = incResp{}
	getJSON(t, ts.URL+"/v1/incidents?kind=link&limit=2", http.StatusOK, &resp)
	if resp.Count != 2 || resp.Incidents[0].ID != 2 || resp.Incidents[1].ID != 4 {
		t.Fatalf("filtered page = %+v", resp)
	}
	if resp.NextAfter != 4 {
		t.Fatalf("filtered next_after = %d, want 4", resp.NextAfter)
	}
	cursor := resp.NextAfter
	resp = incResp{}
	getJSON(t, fmt.Sprintf("%s/v1/incidents?kind=link&limit=2&after=%d", ts.URL, cursor), http.StatusOK, &resp)
	if resp.Count != 2 || resp.Incidents[0].ID != 6 || resp.Incidents[1].ID != 8 {
		t.Fatalf("filtered page 2 = %+v", resp)
	}
}

// countingHistory counts the incident entries its reader hands out.
type countingHistory struct {
	HistoryReader
	incidents atomic.Int64
}

func (c *countingHistory) ReadIncidents(start, count int) ([]core.Incident, error) {
	rows, err := c.HistoryReader.ReadIncidents(start, count)
	c.incidents.Add(int64(len(rows)))
	return rows, err
}

// TestUnfilteredIncidentsPageReadsItsWindow pins that an unfiltered
// /v1/incidents page reads its cursor window and no more: a deep page of
// 25 decodes 25 entries, not a 512-entry scan chunk.
func TestUnfilteredIncidentsPageReadsItsWindow(t *testing.T) {
	srv, ts := newTestServer(t, nil, nil)
	snap := bigSnapshot(500) // 1000 incidents
	hist := &countingHistory{HistoryReader: snap.History}
	snap.History = hist
	srv.PublishSnapshot(snap)

	var resp struct {
		Count     int            `json:"count"`
		Total     int            `json:"total"`
		NextAfter uint64         `json:"next_after"`
		Incidents []IncidentView `json:"incidents"`
	}
	getJSON(t, ts.URL+"/v1/incidents?after=100&limit=25", http.StatusOK, &resp)
	if resp.Count != 25 || resp.Total != 1000 || resp.NextAfter != 125 || resp.Incidents[0].ID != 101 {
		t.Fatalf("page = count %d total %d next_after %d first id %d, want 25, 1000, 125, 101",
			resp.Count, resp.Total, resp.NextAfter, resp.Incidents[0].ID)
	}
	if n := hist.incidents.Load(); n > 25 {
		t.Errorf("a 25-entry page read %d incidents", n)
	}
}

// TestPagesBeforeFirstSnapshot pins what a server serves before its first
// published snapshot: empty history pages, not a failed request.
func TestPagesBeforeFirstSnapshot(t *testing.T) {
	_, ts := newTestServer(t, nil, nil)
	for _, path := range []string{"/v1/outages", "/v1/outages?after=3&limit=2", "/v1/incidents?limit=5", "/v1/incidents?kind=pop"} {
		var resp struct {
			Count int `json:"count"`
			Total int `json:"total"`
		}
		getJSON(t, ts.URL+path, http.StatusOK, &resp)
		if resp.Count != 0 || resp.Total != 0 {
			t.Errorf("%s = count %d total %d, want empty", path, resp.Count, resp.Total)
		}
	}
}
