package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"kepler/internal/core"
)

// outageKey identifies a resolved outage the way the acceptance check
// compares them: epicenter and tracked window.
type outageKey struct {
	PoP        string // "facility:42"
	Start, End int64  // unix nanoseconds
}

// reference is the batch detector's answer for one archive: what every
// daemon lifetime over that archive must end up serving.
type reference struct {
	Outages   []outageKey    // in resolution order
	Incidents map[string]int // count by kind
	NumInc    int
}

func newReference(outs []core.Outage, incs []core.Incident) reference {
	r := reference{Incidents: map[string]int{}, NumInc: len(incs)}
	for _, o := range outs {
		r.Outages = append(r.Outages, outageKey{o.PoP.String(), o.Start.UnixNano(), o.End.UnixNano()})
	}
	for _, in := range incs {
		r.Incidents[in.Kind.String()]++
	}
	return r
}

// checkSSE verifies exactly-once delivery: the ids a client that joined at
// sequence zero received must be 1, 2, ..., published with no gap, repeat
// or reordering.
func checkSSE(frames []sseFrame, published uint64) error {
	for i, f := range frames {
		if f.id != uint64(i)+1 {
			return fmt.Errorf("SSE frame %d carries id %d, want %d (lost, duplicated or reordered event)", i, f.id, i+1)
		}
	}
	if uint64(len(frames)) != published {
		return fmt.Errorf("SSE client received %d events, bus published %d", len(frames), published)
	}
	return nil
}

// pagedHistory walks /v1/outages and /v1/incidents to the end through
// their cursors, as a client that wants the full history would.
func pagedHistory(c *http.Client, base string, limit int) (outs []outageKey, incs map[string]int, requests int, err error) {
	type popView struct {
		Ref string `json:"ref"`
	}
	incs = map[string]int{}
	for after := uint64(0); ; {
		var page struct {
			NextAfter uint64 `json:"next_after"`
			Outages   []struct {
				PoP   popView   `json:"pop"`
				Start time.Time `json:"start"`
				End   time.Time `json:"end"`
			} `json:"outages"`
		}
		requests++
		if err = getJSON(c, fmt.Sprintf("%s/v1/outages?after=%d&limit=%d", base, after, limit), &page); err != nil {
			return
		}
		for _, o := range page.Outages {
			outs = append(outs, outageKey{o.PoP.Ref, o.Start.UnixNano(), o.End.UnixNano()})
		}
		if after = page.NextAfter; after == 0 {
			break
		}
	}
	for after := uint64(0); ; {
		var page struct {
			NextAfter uint64 `json:"next_after"`
			Incidents []struct {
				Kind string `json:"kind"`
			} `json:"incidents"`
		}
		requests++
		if err = getJSON(c, fmt.Sprintf("%s/v1/incidents?after=%d&limit=%d", base, after, limit), &page); err != nil {
			return
		}
		for _, in := range page.Incidents {
			incs[in.Kind]++
		}
		if after = page.NextAfter; after == 0 {
			break
		}
	}
	return
}

// checkHistory compares a served history with the reference.
func checkHistory(ref reference, outs []outageKey, incs map[string]int) error {
	if len(outs) != len(ref.Outages) {
		return fmt.Errorf("served %d resolved outages, batch detector found %d", len(outs), len(ref.Outages))
	}
	for i := range outs {
		if outs[i] != ref.Outages[i] {
			return fmt.Errorf("resolved outage %d is %+v, batch detector says %+v", i+1, outs[i], ref.Outages[i])
		}
	}
	kinds := map[string]bool{}
	for k := range incs {
		kinds[k] = true
	}
	for k := range ref.Incidents {
		kinds[k] = true
	}
	var names []string
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if incs[k] != ref.Incidents[k] {
			return fmt.Errorf("served %d %s incidents, batch detector found %d", incs[k], k, ref.Incidents[k])
		}
	}
	return nil
}

// servedTotals is the slice of /v1/stats the checks read.
type servedTotals struct {
	Resolved  int `json:"resolved_outages"`
	Incidents int `json:"incidents"`
	Bus       struct {
		Published uint64 `json:"published"`
	} `json:"bus"`
	Store *struct {
		Appends         int64 `json:"appends"`
		AppendedBytes   int64 `json:"appended_bytes"`
		Flushes         int64 `json:"flushes"`
		Compactions     int64 `json:"compactions"`
		CheckpointSaves int64 `json:"checkpoint_saves"`
		CheckpointBytes int64 `json:"checkpoint_bytes"`
		RecoveredEvents int64 `json:"recovered_events"`
		ResumeRecords   int64 `json:"resume_records"`
		ReadCacheHits   int64 `json:"read_cache_hits"`
		ReadCacheMisses int64 `json:"read_cache_misses"`
	} `json:"store"`
	Ingest struct {
		Records int64 `json:"records"`
		Bins    int64 `json:"bins"`
	} `json:"ingest"`
}

// checkRestartTotals verifies what a restarted daemon reports about itself
// once caught up: the reference totals, a non-empty recovery, and a resume
// from a checkpoint rather than from record zero.
func checkRestartTotals(ref reference, st servedTotals, resumedFrom uint64) error {
	if st.Resolved != len(ref.Outages) || st.Incidents != ref.NumInc {
		return fmt.Errorf("restarted daemon reports %d outages / %d incidents, want %d / %d",
			st.Resolved, st.Incidents, len(ref.Outages), ref.NumInc)
	}
	if st.Store == nil || st.Store.RecoveredEvents == 0 {
		return fmt.Errorf("restarted daemon recovered no events from its data dir")
	}
	if resumedFrom == 0 {
		return fmt.Errorf("restarted daemon re-ingested from record zero instead of resuming from a checkpoint")
	}
	return nil
}
