package bgpstream

import (
	"hash/fnv"
	"net/netip"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/mrt"
)

// RouteOpKind distinguishes the per-path operations a record fans out to.
type RouteOpKind uint8

// Route op kinds.
const (
	// OpAnnounce carries a (possibly re-)announced route for one prefix.
	OpAnnounce RouteOpKind = iota
	// OpWithdraw retracts one prefix.
	OpWithdraw
	// OpPeerDown reports a collector session leaving Established state; it
	// is broadcast to every shard so each can suspend its partition of the
	// peer's paths.
	OpPeerDown
)

// RouteOp is one shard-addressable unit of work derived from an MRT
// record. Seq is a global, strictly increasing sequence number assigned in
// record order: consumers that merge per-shard results can sort on it to
// reproduce the exact processing order of a sequential replay. Path and
// Communities alias the originating record's slices and must be treated as
// read-only.
type RouteOp struct {
	Seq         uint64
	Kind        RouteOpKind
	Time        time.Time
	Peer        bgp.ASN
	Prefix      netip.Prefix
	Path        bgp.Path
	Communities bgp.Communities
}

// ShardOf deterministically assigns a (vantage, prefix) route key to one
// of n shards. The hash is FNV-1a over the peer ASN and the prefix bytes,
// so the assignment is stable across runs and processes.
func ShardOf(peer bgp.ASN, prefix netip.Prefix, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	var buf [21]byte
	buf[0] = byte(peer >> 24)
	buf[1] = byte(peer >> 16)
	buf[2] = byte(peer >> 8)
	buf[3] = byte(peer)
	a16 := prefix.Addr().As16()
	copy(buf[4:20], a16[:])
	buf[20] = byte(prefix.Bits())
	h.Write(buf[:])
	return int(mix64(h.Sum64()) % uint64(n))
}

// mix64 is a splitmix64-style finalizer: FNV's low bits correlate on
// short, near-constant inputs like route keys, which would starve shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Fanout splits a time-ordered record stream into n per-shard route-op
// queues, keeping all ops of one (peer, prefix) path key on one shard so
// per-path state needs no locking. State messages leaving Established
// broadcast a peer-down op to every shard. Fanout is the ingestion half of
// the sharded engine: it does only cheap routing (hash + append) on the
// hot path, leaving community annotation and state maintenance to the
// shard workers.
type Fanout struct {
	n       int
	seq     uint64
	pending [][]RouteOp
	// spare holds one recycled op slab per shard, adopted by the next Take
	// so batch dispatch reuses capacity instead of allocating per batch.
	spare [][]RouteOp
}

// NewFanout builds a fan-out over n shards (n >= 1).
func NewFanout(n int) *Fanout {
	if n < 1 {
		n = 1
	}
	return &Fanout{n: n, pending: make([][]RouteOp, n), spare: make([][]RouteOp, n)}
}

// Seq returns the sequence number of the most recently emitted op.
func (f *Fanout) Seq() uint64 { return f.seq }

// RestoreSeq seeds the op sequence counter — the checkpoint-recovery hook
// that keeps post-restore op numbering identical to an uninterrupted run.
func (f *Fanout) RestoreSeq(seq uint64) { f.seq = seq }

// ShardOf returns the shard owning a path key under this fan-out.
func (f *Fanout) ShardOf(peer bgp.ASN, prefix netip.Prefix) int {
	return ShardOf(peer, prefix, f.n)
}

// Add splits one record into pending per-shard ops and returns the number
// of ops queued. Records must arrive in non-decreasing time order.
func (f *Fanout) Add(rec *mrt.Record) int {
	switch rec.Kind {
	case mrt.KindState:
		if rec.NewState == mrt.StateEstablished {
			return 0
		}
		f.seq++
		op := RouteOp{Seq: f.seq, Kind: OpPeerDown, Time: rec.Time, Peer: rec.PeerAS}
		for i := range f.pending {
			f.pending[i] = append(f.pending[i], op)
		}
		return f.n
	case mrt.KindRIB, mrt.KindUpdate:
		if rec.Update == nil {
			return 0
		}
		n := 0
		for _, p := range rec.Update.Withdrawn {
			f.seq++
			i := ShardOf(rec.PeerAS, p, f.n)
			f.pending[i] = append(f.pending[i], RouteOp{
				Seq: f.seq, Kind: OpWithdraw, Time: rec.Time, Peer: rec.PeerAS, Prefix: p,
			})
			n++
		}
		attrs := rec.Update.Attrs
		for _, p := range rec.Update.Announced {
			f.seq++
			i := ShardOf(rec.PeerAS, p, f.n)
			f.pending[i] = append(f.pending[i], RouteOp{
				Seq: f.seq, Kind: OpAnnounce, Time: rec.Time, Peer: rec.PeerAS, Prefix: p,
				Path: attrs.ASPath, Communities: attrs.Communities,
			})
			n++
		}
		return n
	}
	return 0
}

// Pending returns the number of ops queued for shard i.
func (f *Fanout) Pending(i int) int { return len(f.pending[i]) }

// Take hands shard i's pending ops to the caller and resets the queue,
// adopting a previously recycled slab (if any) as the new accumulation
// buffer so steady-state dispatch stops allocating.
func (f *Fanout) Take(i int) []RouteOp {
	ops := f.pending[i]
	f.pending[i] = f.spare[i]
	f.spare[i] = nil
	return ops
}

// Recycle returns a fully consumed Take buffer to shard i for reuse. The
// caller must guarantee the ops have been completely applied: the slab is
// reused by a later Add, overwriting its entries. If the accumulation
// buffer is empty the slab is adopted immediately; otherwise it is parked
// as the shard's spare and adopted by the next Take.
func (f *Fanout) Recycle(i int, ops []RouteOp) {
	if ops == nil {
		return
	}
	if f.pending[i] == nil {
		f.pending[i] = ops[:0]
		return
	}
	f.spare[i] = ops[:0]
}
