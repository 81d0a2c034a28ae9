package pipeline

import (
	"sync"
	"time"

	"kepler/internal/colo"
	"kepler/internal/simulate"
)

// keepWindows is how many rendered windows the rolling data plane retains:
// probe campaigns lag their signal bin by at least one barrier, so a query
// can land in the window just rotated out; anything older than two windows
// is stale archive the platform no longer covers.
const keepWindows = 2

// WindowDataPlane is the probe.Backend over a rolling sequence of rendered
// scenario windows — the shape keplerd's -synthetic source needs, since it
// renders endless windows rather than one batch. Install hands it each
// freshly rendered window (live.SyntheticConfig's OnWindow hook); Probe
// routes each query to the window's SimDataPlane containing the queried
// instant and answers no-data outside the retained horizon.
//
// Install runs on the ingest goroutine while Probe runs on probe worker
// goroutines; the window list is mutex-guarded, and each window's
// SimDataPlane is safe for concurrent use.
type WindowDataPlane struct {
	stack *Stack

	mu   sync.Mutex
	wins []simWindow // oldest first, at most keepWindows
}

type simWindow struct {
	start, end time.Time
	dp         *SimDataPlane
}

// NewWindowDataPlane builds a rolling data plane with no window installed.
func (s *Stack) NewWindowDataPlane() *WindowDataPlane {
	return &WindowDataPlane{stack: s}
}

// Install registers a rendered window, evicting the oldest beyond the
// retention horizon. Its signature matches live.SyntheticConfig.OnWindow.
func (w *WindowDataPlane) Install(res *simulate.Result, start, end time.Time) {
	dp := w.stack.NewSimDataPlane(res)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wins = append(w.wins, simWindow{start: start, end: end, dp: dp})
	if len(w.wins) > keepWindows {
		w.wins = w.wins[len(w.wins)-keepWindows:]
	}
}

// Probe implements probe.Backend.
func (w *WindowDataPlane) Probe(pop colo.PoP, at time.Time) (bool, bool) {
	w.mu.Lock()
	var dp *SimDataPlane
	for _, win := range w.wins {
		if !at.Before(win.start) && at.Before(win.end) {
			dp = win.dp
			break
		}
	}
	w.mu.Unlock()
	if dp == nil {
		return false, false // outside the retained archive: unmeasurable
	}
	return dp.Probe(pop, at)
}
