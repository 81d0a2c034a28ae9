package events

// Ring is a fixed-capacity circular buffer of recent events that evicts the
// oldest entry on overflow — the retention window behind both the bus's
// Last-Event-ID replay (Bus.Replay) and the store's persisted event tail.
// A nil *Ring is valid and retains nothing. Ring is not goroutine-safe;
// each owner guards it with its own lock.
type Ring struct {
	buf   []Event
	start int
	n     int
}

// NewRing returns a ring retaining up to capacity events, or nil when
// capacity <= 0 (retention disabled).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		return nil
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Push appends ev, evicting the oldest entry when full.
func (r *Ring) Push(ev Event) {
	if r == nil {
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
}

// Len reports how many events are retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Each calls fn on every retained event, oldest first.
func (r *Ring) Each(fn func(Event)) {
	if r == nil {
		return
	}
	for i := 0; i < r.n; i++ {
		fn(r.buf[(r.start+i)%len(r.buf)])
	}
}

// Events copies the retained window, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.Len())
	r.Each(func(ev Event) { out = append(out, ev) })
	return out
}
