package daemon

import (
	"kepler/internal/core"
	"kepler/internal/store"
)

// overlayReader composes the serving-tier history reader for the degraded
// mode a daemon enters when a store append fails mid-run: the prefix
// persisted before the failure still pages off the store's segments, and
// everything resolved after it is served from the in-memory overlay the
// hooks keep accumulating. Each published snapshot captures an immutable
// view of the overlay slices (the ingest goroutine only ever appends), so
// concurrent HTTP reads need no locking here.
type overlayReader struct {
	st   *store.Store
	outs []core.Outage   // entries beyond the persisted outage prefix
	incs []core.Incident // entries beyond the persisted incident prefix
	// persisted totals at the failure point; the overlay starts there.
	outBase, incBase int
}

func (o overlayReader) ReadOutages(start, count int) ([]core.Outage, error) {
	return readOverlaid(o.st.ReadOutages, o.outs, o.outBase, start, count)
}

func (o overlayReader) ReadIncidents(start, count int) ([]core.Incident, error) {
	return readOverlaid(o.st.ReadIncidents, o.incs, o.incBase, start, count)
}

// readOverlaid splices one logical [start, start+count) window out of the
// persisted prefix plus the in-memory overlay, clamping at the overlay end
// like the store clamps at its history end.
func readOverlaid[T any](persisted func(int, int) ([]T, error), overlay []T, base, start, count int) ([]T, error) {
	if start < 0 || count < 0 {
		start, count = 0, 0
	}
	var out []T
	if start < base {
		n := min(count, base-start)
		p, err := persisted(start, n)
		if err != nil {
			return nil, err
		}
		out = p
		start += n
		count -= n
	}
	if i := start - base; count > 0 && i < len(overlay) {
		out = append(out, overlay[i:min(i+count, len(overlay))]...)
	}
	return out, nil
}
