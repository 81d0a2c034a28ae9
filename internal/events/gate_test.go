package events

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/core"
)

// hookKinds names the core.Hooks fields in the order fireAll invokes them.
var hookKinds = []string{
	"OutageOpened", "OutageUpdated", "OutageResolved", "IncidentClassified",
	"BinClosed", "ProbeRequested", "ProbeConfirmed", "ProbeExpired",
	"TraceRecorded", "FeedDegraded", "FeedRecovered",
}

// recordingHooks returns a hook set that appends each fired kind to fired.
// Kinds in omit are left nil, as a caller that does not care about them
// would.
func recordingHooks(fired *[]string, omit map[string]bool) core.Hooks {
	rec := func(kind string) { *fired = append(*fired, kind) }
	h := core.Hooks{
		OutageOpened:       func(core.OutageStatus) { rec("OutageOpened") },
		OutageUpdated:      func(core.OutageStatus) { rec("OutageUpdated") },
		OutageResolved:     func(core.Outage) { rec("OutageResolved") },
		IncidentClassified: func(core.Incident) { rec("IncidentClassified") },
		BinClosed:          func(time.Time) { rec("BinClosed") },
		ProbeRequested:     func(core.PendingConfirmation) { rec("ProbeRequested") },
		ProbeConfirmed:     func(core.ProbeOutcome) { rec("ProbeConfirmed") },
		ProbeExpired:       func(core.ProbeOutcome) { rec("ProbeExpired") },
		TraceRecorded:      func(core.OutageTrace) { rec("TraceRecorded") },
		FeedDegraded:       func(bgpstream.FeedTransition) { rec("FeedDegraded") },
		FeedRecovered:      func(bgpstream.FeedTransition) { rec("FeedRecovered") },
	}
	v := reflect.ValueOf(&h).Elem()
	for kind := range omit {
		f := v.FieldByName(kind)
		f.Set(reflect.Zero(f.Type()))
	}
	return h
}

// fireAll invokes every non-nil callback once, in hookKinds order — the way
// the engine does (it nil-checks each field before calling).
func fireAll(h core.Hooks) {
	v := reflect.ValueOf(h)
	for _, kind := range hookKinds {
		f := v.FieldByName(kind)
		if !f.IsNil() {
			f.Call([]reflect.Value{reflect.Zero(f.Type().In(0))})
		}
	}
}

func requireAllSet(t *testing.T, h core.Hooks) {
	t.Helper()
	v := reflect.ValueOf(h)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsNil() {
			t.Errorf("wrapped hook %s is nil", v.Type().Field(i).Name)
		}
	}
}

// TestHookMiddlewareCoversEveryKind pins the one enumeration in gate.go to
// core.Hooks: a field added there without a guardHooks line fails here.
func TestHookMiddlewareCoversEveryKind(t *testing.T) {
	if n := reflect.TypeOf(core.Hooks{}).NumField(); n != len(hookKinds) {
		t.Fatalf("core.Hooks has %d fields, this test (and guardHooks) enumerate %d", n, len(hookKinds))
	}
	// Every other kind unset: the gate must still count those callbacks.
	sparse := map[string]bool{}
	for i, kind := range hookKinds {
		if i%2 == 1 {
			sparse[kind] = true
		}
	}
	for _, omit := range []map[string]bool{nil, sparse} {
		for skip := 1; skip <= len(hookKinds)+1; skip++ {
			t.Run(fmt.Sprintf("gate/nil=%d/skip=%d", len(omit), skip), func(t *testing.T) {
				var fired, want []string
				g := GateHooks(recordingHooks(&fired, omit), uint64(skip))
				requireAllSet(t, g)
				fireAll(g)
				for i, kind := range hookKinds {
					if i >= skip && !omit[kind] {
						want = append(want, kind)
					}
				}
				if !reflect.DeepEqual(fired, want) {
					t.Errorf("passed %v, want %v", fired, want)
				}
			})
		}
		t.Run(fmt.Sprintf("mute/nil=%d", len(omit)), func(t *testing.T) {
			var fired, want []string
			muted := true
			m := MuteHooks(recordingHooks(&fired, omit), func() bool { return muted })
			requireAllSet(t, m)
			fireAll(m)
			if len(fired) != 0 {
				t.Errorf("muted hooks fired %v", fired)
			}
			muted = false
			fireAll(m)
			for _, kind := range hookKinds {
				if !omit[kind] {
					want = append(want, kind)
				}
			}
			if !reflect.DeepEqual(fired, want) {
				t.Errorf("unmuted hooks fired %v, want %v", fired, want)
			}
		})
	}
}
