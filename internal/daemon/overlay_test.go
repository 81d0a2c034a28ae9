package daemon

import (
	"reflect"
	"testing"
	"time"

	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/store"
)

// TestOverlayReaderSplicesPrefixAndOverlay drives every window shape across
// the persisted/overlay boundary against a flat-slice reference.
func TestOverlayReaderSplicesPrefixAndOverlay(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	start := time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC)
	mkOut := func(i int) core.Outage {
		return core.Outage{
			PoP:   colo.FacilityPoP(colo.FacilityID(i + 1)),
			Start: start, End: start.Add(time.Duration(i+1) * time.Minute),
		}
	}
	mkInc := func(i int) core.Incident {
		return core.Incident{Time: start.Add(time.Duration(i) * time.Minute), Kind: core.IncidentPoP,
			PoP: colo.FacilityPoP(colo.FacilityID(i + 1))}
	}
	const persisted = 5
	seq := uint64(0)
	for i := 0; i < persisted; i++ {
		o, inc := mkOut(i), mkInc(i)
		bin := start.Add(time.Duration(i+1) * time.Minute)
		for _, ev := range []events.Event{
			{Time: bin, Kind: events.KindOutageResolved, Outage: &o},
			{Time: bin, Kind: events.KindIncident, Incident: &inc},
			{Time: bin, Kind: events.KindBinClosed},
		} {
			seq++
			ev.Seq = seq
			if err := st.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The daemon "fails" here; three more of each accumulate in memory.
	var all []core.Outage
	var allIncs []core.Incident
	for i := 0; i < persisted+3; i++ {
		all = append(all, mkOut(i))
		allIncs = append(allIncs, mkInc(i))
	}
	ov := overlayReader{st: st, outs: all[persisted:], incs: allIncs[persisted:],
		outBase: persisted, incBase: persisted}

	total := len(all)
	for s := 0; s <= total+1; s++ {
		for c := 0; c <= total+2; c++ {
			want := all[min(s, total):min(s+c, total)]
			got, err := ov.ReadOutages(s, c)
			if err != nil {
				t.Fatalf("ReadOutages(%d,%d): %v", s, c, err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("ReadOutages(%d,%d) = %d entries, want %d", s, c, len(got), len(want))
			}
			wantInc := allIncs[min(s, total):min(s+c, total)]
			gotInc, err := ov.ReadIncidents(s, c)
			if err != nil {
				t.Fatalf("ReadIncidents(%d,%d): %v", s, c, err)
			}
			if len(gotInc) != len(wantInc) || (len(wantInc) > 0 && !reflect.DeepEqual(gotInc, wantInc)) {
				t.Fatalf("ReadIncidents(%d,%d) = %d entries, want %d", s, c, len(gotInc), len(wantInc))
			}
		}
	}
	if got, err := ov.ReadOutages(-3, 4); err != nil || len(got) != 0 {
		t.Errorf("negative start = %v, %v; want empty", got, err)
	}
}
