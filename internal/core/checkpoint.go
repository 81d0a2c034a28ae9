package core

import (
	"cmp"
	"container/heap"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
)

// CheckpointVersion is the encoding version DecodeCheckpoint accepts. Any
// change to the checkpoint layout or to the semantics of a serialized field
// must bump it: restoring a checkpoint written by different detection code
// would silently desynchronize the replay gate, so a version mismatch is a
// hard decode error and recovery falls back to an older checkpoint or a
// full re-ingest. testdata/checkpoint_v3.golden pins the bytes.
//
// Version history: 2 added the feed-health watchdog state (Feed); 3
// replaced the JSON document with the binary layout below. Versions 1 and 2
// start with '{' rather than the magic, so an older build's checkpoint is
// refused by its first bytes and costs one full re-ingest.
//
// Layout (every integer is a varint; times are zig-zag unix seconds then
// nanoseconds, normalized to UTC):
//
//	"KPCK" version bin_start records op_seq probe_seq
//	n × path:   key n × hop-asn n × (pop near far since)
//	n × stable: pop near far key
//	n bytes:    the small sections (checkpointTail) as one JSON object
//
//	key = peer, family byte (4|6), prefix-length byte, 4|16 address bytes
//	pop = kind byte, id
const CheckpointVersion = 3

const checkpointMagic = "KPCK"

// Checkpoint is the complete serializable detection state of an Engine (or
// Detector) at a bin barrier: the per-path monitoring tables, the stable
// baseline, collector session state, the investigator's incident log and
// outage tracker, and any probe campaigns parked as pending confirmations.
//
// The encoding is deterministic — every map is flattened into a sorted
// slice — so for one record stream the checkpoint bytes are identical
// regardless of shard count, and a checkpoint can be restored into an
// engine with any shard count. Restoring a checkpoint taken after record N
// and re-ingesting records N+1.. reproduces byte-for-byte the state and
// lifecycle-hook sequence of an uninterrupted run.
//
// A captured checkpoint's Paths alias the engine's live AS paths: encode it
// before the next Process call.
type Checkpoint struct {
	Version int
	// BinStart is the bin clock position: the start of the bin the next
	// record falls into (the closing bin's end when captured at a barrier).
	BinStart time.Time
	// Records counts the source records whose effects this checkpoint
	// includes; recovery resumes ingestion at record offset Records.
	Records uint64
	// OpSeq is the fan-out's global route-op sequence counter.
	OpSeq uint64
	// ProbeSeq is the investigator's campaign-id counter.
	ProbeSeq uint64

	Paths  []PathCheckpoint
	Stable []StableCheckpoint

	checkpointTail
}

// checkpointTail holds the sections that stay small however many paths are
// monitored (71 KB of a 1 MB storm checkpoint). They ride in the encoding
// as one JSON object: hand-coding seven more record types would buy well
// under a millisecond per checkpoint.
type checkpointTail struct {
	Sessions bgpstream.SessionCheckpoint `json:"sessions"`
	// Feed is the feed-health watchdog state (Config.FeedSilence); empty
	// when the watchdog is disabled. Like Sessions it is global, not
	// per-shard, so the encoding stays shard-count independent.
	Feed bgpstream.FeedCheckpoint `json:"feed"`

	Incidents []Incident `json:"incidents,omitempty"`
	// Completed are outages emitted but not yet drained by the caller.
	Completed []Outage                 `json:"completed,omitempty"`
	Open      []OpenOutageCheckpoint   `json:"open,omitempty"`
	Cooling   []Outage                 `json:"cooling,omitempty"`
	Pending   []PendingProbeCheckpoint `json:"pending,omitempty"`
}

// PathKeyCheckpoint is the serialized form of one monitored path key.
type PathKeyCheckpoint struct {
	Peer   bgp.ASN      `json:"peer"`
	Prefix netip.Prefix `json:"prefix"`
}

func ckptKey(k PathKey) PathKeyCheckpoint   { return PathKeyCheckpoint{Peer: k.Peer, Prefix: k.Prefix} }
func (k PathKeyCheckpoint) unpack() PathKey { return PathKey{Peer: k.Peer, Prefix: k.Prefix} }

func cmpKey(a, b PathKeyCheckpoint) int {
	if a.Peer != b.Peer {
		return cmp.Compare(a.Peer, b.Peer)
	}
	if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits())
}

// sortKey is a path key flattened to integers that compare in cmpKey order:
// the sort over every monitored path moves 32-byte entries and never calls
// into netip.
type sortKey struct {
	peer        bgp.ASN
	width, bits uint8 // address and prefix length in bits
	hi, lo      uint64
}

func makeSortKey(k PathKey) sortKey {
	addr := k.Prefix.Addr()
	raw := addr.As16()
	return sortKey{
		peer: k.Peer, width: uint8(addr.BitLen()), bits: uint8(k.Prefix.Bits()),
		hi: binary.BigEndian.Uint64(raw[:8]), lo: binary.BigEndian.Uint64(raw[8:]),
	}
}

func (a sortKey) compare(b sortKey) int {
	if c := cmp.Compare(a.peer, b.peer); c != 0 {
		return c
	}
	if c := cmp.Compare(a.width, b.width); c != 0 {
		return c
	}
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	return cmp.Compare(a.bits, b.bits)
}

func (k sortKey) key() PathKeyCheckpoint {
	var raw [16]byte
	binary.BigEndian.PutUint64(raw[:8], k.hi)
	binary.BigEndian.PutUint64(raw[8:], k.lo)
	addr := netip.AddrFrom16(raw)
	if k.width == 32 {
		addr = addr.Unmap()
	}
	return PathKeyCheckpoint{Peer: k.peer, Prefix: netip.PrefixFrom(addr, int(k.bits))}
}

func cmpPoP(a, b colo.PoP) int {
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	return cmp.Compare(a.ID, b.ID)
}

func sortKeySet(set map[PathKey]bool) []PathKeyCheckpoint {
	keys := make([]PathKeyCheckpoint, 0, len(set))
	for k := range set {
		keys = append(keys, ckptKey(k))
	}
	slices.SortFunc(keys, cmpKey)
	return keys
}

// TagCheckpoint is one currently tagged PoP of a path with its hop ends and
// the instant the tag became continuous (the stability clock).
type TagCheckpoint struct {
	PoP   colo.PoP
	Near  bgp.ASN
	Far   bgp.ASN
	Since time.Time
}

// PathCheckpoint is the full monitoring state of one path.
type PathCheckpoint struct {
	Key  PathKeyCheckpoint
	Path bgp.Path
	Tags []TagCheckpoint
}

// StableCheckpoint is one stable-baseline membership: key is stable at PoP
// under the near-end AS grouping, with the recorded hop ends.
type StableCheckpoint struct {
	PoP  colo.PoP
	Near bgp.ASN
	Far  bgp.ASN
	Key  PathKeyCheckpoint
}

// OpenOutageCheckpoint is the tracker state of one ongoing outage.
type OpenOutageCheckpoint struct {
	Epicenter  colo.PoP            `json:"epicenter"`
	SignalPoPs []colo.PoP          `json:"signal_pops"`
	Start      time.Time           `json:"start"`
	LastSignal time.Time           `json:"last_signal"`
	Waiting    []PathKeyCheckpoint `json:"waiting,omitempty"`
	Returned   []PathKeyCheckpoint `json:"returned,omitempty"`
	LastReturn time.Time           `json:"last_return,omitempty"`
	Affected   []bgp.ASN           `json:"affected,omitempty"`
	Confirmed  bool                `json:"confirmed,omitempty"`
	DPChecked  bool                `json:"dp_checked,omitempty"`
	Merged     int                 `json:"merged,omitempty"`
}

// DivertRecCheckpoint is the detached divert record of a parked group:
// path key and link ends, exactly what promotion rebuilds the tracker-facing
// group from.
type DivertRecCheckpoint struct {
	Key  PathKeyCheckpoint `json:"key"`
	Near bgp.ASN           `json:"near"`
	Far  bgp.ASN           `json:"far"`
}

// PendingProbeCheckpoint is one parked signal group awaiting its campaign
// verdict. Restore re-parks it and re-submits the campaign to the prober.
type PendingProbeCheckpoint struct {
	ID         uint64                `json:"id"`
	At         time.Time             `json:"at"`
	Deadline   time.Time             `json:"deadline"`
	Epicenter  colo.PoP              `json:"epicenter"`
	Candidates []colo.PoP            `json:"candidates,omitempty"`
	SignalPoP  colo.PoP              `json:"signal_pop"`
	Recs       []DivertRecCheckpoint `json:"recs,omitempty"`
	Affected   []bgp.ASN             `json:"affected,omitempty"`
	Paths      int                   `json:"paths"`
	Waiting    []PathKeyCheckpoint   `json:"waiting,omitempty"`
	Returned   []PathKeyCheckpoint   `json:"returned,omitempty"`
	LastReturn time.Time             `json:"last_return,omitempty"`
}

func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

func appendPoP(b []byte, p colo.PoP) []byte {
	return binary.AppendUvarint(append(b, byte(p.Kind)), uint64(p.ID))
}

func appendKey(b []byte, k PathKeyCheckpoint) ([]byte, error) {
	if !k.Prefix.IsValid() {
		return nil, fmt.Errorf("core: encoding checkpoint: %v has no valid prefix", k.Peer)
	}
	b = binary.AppendUvarint(b, uint64(k.Peer))
	addr, bits := k.Prefix.Addr(), byte(k.Prefix.Bits())
	if addr.Is4() {
		raw := addr.As4()
		return append(append(b, 4, bits), raw[:]...), nil
	}
	raw := addr.As16()
	return append(append(b, 6, bits), raw[:]...), nil
}

// Encode renders the checkpoint as its canonical byte encoding. Because
// every collection is sorted at capture, encoding the same detection state
// always yields the same bytes.
func (c *Checkpoint) Encode() ([]byte, error) {
	tail, err := json.Marshal(&c.checkpointTail)
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	// The storm checkpoint takes 37 B per path and 17 B per stable entry;
	// sized a little above that, the buffer rarely grows.
	b := make([]byte, 0, 64+48*len(c.Paths)+24*len(c.Stable)+len(tail))
	b = append(b, checkpointMagic...)
	b = binary.AppendUvarint(b, uint64(c.Version))
	b = appendTime(b, c.BinStart)
	b = binary.AppendUvarint(b, c.Records)
	b = binary.AppendUvarint(b, c.OpSeq)
	b = binary.AppendUvarint(b, c.ProbeSeq)

	b = binary.AppendUvarint(b, uint64(len(c.Paths)))
	for i := range c.Paths {
		p := &c.Paths[i]
		if b, err = appendKey(b, p.Key); err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(len(p.Path)))
		for _, hop := range p.Path {
			b = binary.AppendUvarint(b, uint64(hop))
		}
		b = binary.AppendUvarint(b, uint64(len(p.Tags)))
		for j := range p.Tags {
			t := &p.Tags[j]
			b = appendPoP(b, t.PoP)
			b = binary.AppendUvarint(b, uint64(t.Near))
			b = binary.AppendUvarint(b, uint64(t.Far))
			b = appendTime(b, t.Since)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(c.Stable)))
	for i := range c.Stable {
		e := &c.Stable[i]
		b = appendPoP(b, e.PoP)
		b = binary.AppendUvarint(b, uint64(e.Near))
		b = binary.AppendUvarint(b, uint64(e.Far))
		if b, err = appendKey(b, e.Key); err != nil {
			return nil, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(tail)))
	return append(b, tail...), nil
}

// Smallest encodings of one path, hop, tag and stable entry: what a count
// is checked against before anything is allocated for it.
const (
	minKeyBytes    = 1 + 2 + 4
	minPathBytes   = minKeyBytes + 1 + 1
	minHopBytes    = 1
	minTagBytes    = 2 + 1 + 1 + 2
	minStableBytes = 2 + 1 + 1 + minKeyBytes
)

// ckptReader consumes an encoded checkpoint. The first malformed field
// sets err and empties the input, so every later read returns zero and
// callers check err once per section.
type ckptReader struct {
	b   []byte
	err error
}

func (r *ckptReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: decoding checkpoint: %s", what)
	}
	r.b = nil
}

func (r *ckptReader) take(n int) []byte {
	if n > len(r.b) {
		r.fail("truncated")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *ckptReader) byte() byte {
	if raw := r.take(1); raw != nil {
		return raw[0]
	}
	return 0
}

func (r *ckptReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *ckptReader) u32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("integer exceeds 32 bits")
		return 0
	}
	return uint32(v)
}

// count reads an element count and refuses one the remaining input cannot
// hold at minBytes per element.
func (r *ckptReader) count(minBytes int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/minBytes) {
		r.fail("count exceeds the remaining input")
		return 0
	}
	return int(v)
}

func (r *ckptReader) time() time.Time {
	sec, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return time.Time{}
	}
	r.b = r.b[n:]
	nsec := r.uvarint()
	if nsec >= uint64(time.Second) {
		r.fail("nanoseconds out of range")
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

func (r *ckptReader) pop() colo.PoP {
	return colo.PoP{Kind: colo.PoPKind(r.byte()), ID: r.u32()}
}

func (r *ckptReader) key() PathKeyCheckpoint {
	peer := bgp.ASN(r.u32())
	family, bits := r.byte(), int(r.byte())
	var addr netip.Addr
	switch family {
	case 4:
		if raw := r.take(4); raw != nil {
			addr = netip.AddrFrom4([4]byte(raw))
		}
	case 6:
		if raw := r.take(16); raw != nil {
			addr = netip.AddrFrom16([16]byte(raw))
		}
	}
	if !addr.IsValid() || bits > addr.BitLen() {
		r.fail("malformed prefix")
		return PathKeyCheckpoint{}
	}
	return PathKeyCheckpoint{Peer: peer, Prefix: netip.PrefixFrom(addr, bits)}
}

// slab carves many small slices out of few large allocations.
type slab[T any] struct{ free []T }

const slabChunk = 4096

func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, slabChunk))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// DecodeCheckpoint parses an encoded checkpoint. It refuses anything but
// this build's version — a checkpoint written by a different encoding must
// never be half-restored — and any input with a count or length the
// remaining bytes cannot back, with a truncated field, or with bytes left
// over.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < len(checkpointMagic) || string(b[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("core: decoding checkpoint: no %q magic (written by a build older than checkpoint version 3?)", checkpointMagic)
	}
	r := &ckptReader{b: b[len(checkpointMagic):]}
	c := &Checkpoint{Version: int(r.u32())}
	if r.err == nil && c.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, this build reads %d", c.Version, CheckpointVersion)
	}
	c.BinStart = r.time()
	c.Records = r.uvarint()
	c.OpSeq = r.uvarint()
	c.ProbeSeq = r.uvarint()

	var (
		hops slab[bgp.ASN]
		tags slab[TagCheckpoint]
	)
	if n := r.count(minPathBytes); n > 0 {
		c.Paths = make([]PathCheckpoint, n)
	}
	for i := range c.Paths {
		p := &c.Paths[i]
		p.Key = r.key()
		if n := r.count(minHopBytes); n > 0 {
			p.Path = hops.take(n)
			for j := range p.Path {
				p.Path[j] = bgp.ASN(r.u32())
			}
		}
		if n := r.count(minTagBytes); n > 0 {
			p.Tags = tags.take(n)
			for j := range p.Tags {
				p.Tags[j] = TagCheckpoint{PoP: r.pop(), Near: bgp.ASN(r.u32()), Far: bgp.ASN(r.u32()), Since: r.time()}
			}
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if n := r.count(minStableBytes); n > 0 {
		c.Stable = make([]StableCheckpoint, n)
	}
	for i := range c.Stable {
		c.Stable[i] = StableCheckpoint{PoP: r.pop(), Near: bgp.ASN(r.u32()), Far: bgp.ASN(r.u32()), Key: r.key()}
		if r.err != nil {
			return nil, r.err
		}
	}
	tail := r.take(r.count(1))
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("core: decoding checkpoint: %d trailing bytes", len(r.b))
	}
	if err := json.Unmarshal(tail, &c.checkpointTail); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return c, nil
}

// captureCheckpoint assembles a checkpoint from quiesced pipeline state.
// The caller guarantees exclusive access to every shard (bin barrier, or a
// pipeline with no ops since its last barrier).
func captureCheckpoint(binStart time.Time, records uint64, fan *bgpstream.Fanout, shards []*pathShard, inv *investigator) *Checkpoint {
	c := &Checkpoint{
		Version:  CheckpointVersion,
		BinStart: binStart,
		Records:  records,
		OpSeq:    fan.Seq(),
		ProbeSeq: inv.probeSeq,
	}
	c.Sessions = fan.Tracker().Checkpoint()
	if inv.feed != nil {
		c.Feed = inv.feed.Checkpoint()
	}

	// Per-path monitoring state, merged across shards and globally sorted:
	// the encoding is shard-count independent.
	nPaths, nStable := 0, 0
	for _, s := range shards {
		nPaths += len(s.paths)
		for _, byNear := range s.stable {
			for _, set := range byNear {
				nStable += len(set)
			}
		}
	}
	type pathEnt struct {
		sortKey
		st *pathState
	}
	ents := make([]pathEnt, 0, nPaths)
	for _, s := range shards {
		for key, st := range s.paths {
			ents = append(ents, pathEnt{makeSortKey(key), st})
		}
	}
	slices.SortFunc(ents, func(a, b pathEnt) int { return a.sortKey.compare(b.sortKey) })
	c.Paths = make([]PathCheckpoint, nPaths)
	var tags slab[TagCheckpoint]
	for i, e := range ents {
		p := &c.Paths[i]
		p.Key, p.Path = e.key(), e.st.path
		if len(e.st.tags) > 0 {
			p.Tags = tags.take(len(e.st.tags))
			for j, t := range e.st.tags {
				p.Tags[j] = TagCheckpoint{PoP: t.pop, Near: t.ends.near, Far: t.ends.far, Since: t.since}
			}
			slices.SortFunc(p.Tags, func(a, b TagCheckpoint) int { return cmpPoP(a.PoP, b.PoP) })
		}
	}

	// The stable baseline is already grouped by (pop, near) inside each
	// shard: ordering the groups and then each group's few keys costs a
	// fraction of one sort over every entry.
	c.Stable = make([]StableCheckpoint, 0, nStable)
	var pops []colo.PoP
	for _, s := range shards {
		for pop := range s.stable {
			pops = append(pops, pop)
		}
	}
	slices.SortFunc(pops, cmpPoP)
	var (
		nears []bgp.ASN
		group []StableCheckpoint
	)
	for _, pop := range slices.Compact(pops) {
		nears = nears[:0]
		for _, s := range shards {
			for near := range s.stable[pop] {
				nears = append(nears, near)
			}
		}
		slices.Sort(nears)
		for _, near := range slices.Compact(nears) {
			group = group[:0]
			for _, s := range shards {
				for key, ends := range s.stable[pop][near] {
					group = append(group, StableCheckpoint{PoP: pop, Near: near, Far: ends.far, Key: ckptKey(key)})
				}
			}
			slices.SortFunc(group, func(a, b StableCheckpoint) int { return cmpKey(a.Key, b.Key) })
			c.Stable = append(c.Stable, group...)
		}
	}

	// Investigator state: the incident log, undrained completions, the
	// outage tracker, and parked probe campaigns.
	c.Incidents = append([]Incident(nil), inv.incidents...)
	c.Completed = append([]Outage(nil), inv.completed...)
	c.Cooling = append([]Outage(nil), inv.tracker.cooling...)
	epis := make([]colo.PoP, 0, len(inv.tracker.opened))
	for pop := range inv.tracker.opened {
		epis = append(epis, pop)
	}
	slices.SortFunc(epis, cmpPoP)
	for _, pop := range epis {
		o := inv.tracker.opened[pop]
		sigs := make([]colo.PoP, 0, len(o.signalPops))
		for p := range o.signalPops {
			sigs = append(sigs, p)
		}
		slices.SortFunc(sigs, cmpPoP)
		affected := make([]bgp.ASN, 0, len(o.affected))
		for a := range o.affected {
			affected = append(affected, a)
		}
		slices.Sort(affected)
		c.Open = append(c.Open, OpenOutageCheckpoint{
			Epicenter:  o.epicenter,
			SignalPoPs: sigs,
			Start:      o.start,
			LastSignal: o.lastSignal,
			Waiting:    sortKeySet(o.waiting),
			Returned:   sortKeySet(o.returned),
			LastReturn: o.lastReturn,
			Affected:   affected,
			Confirmed:  o.confirmed,
			DPChecked:  o.dpChecked,
			Merged:     o.merged,
		})
	}
	for _, id := range inv.pendingIDs() {
		p := inv.pending[id]
		pc := PendingProbeCheckpoint{
			ID:         p.id,
			At:         p.at,
			Deadline:   p.deadline,
			Epicenter:  p.epicenter,
			Candidates: append([]colo.PoP(nil), p.candidates...),
			SignalPoP:  p.signalPop,
			Affected:   append([]bgp.ASN(nil), p.affected...),
			Paths:      p.paths,
			Waiting:    sortKeySet(p.waiting),
			Returned:   sortKeySet(p.returned),
			LastReturn: p.lastReturn,
		}
		for _, r := range p.recs {
			pc.Recs = append(pc.Recs, DivertRecCheckpoint{Key: ckptKey(r.key), Near: r.ends.near, Far: r.ends.far})
		}
		c.Pending = append(c.Pending, pc)
	}
	return c
}

// restoreCheckpoint loads a checkpoint into a fresh pipeline: paths and
// stable-baseline entries are re-partitioned across the shards by shardOf
// (nil assigns everything to shard 0), derived indexes and promotion queues
// are rebuilt, the tracker and pending campaigns are reinstated, campaigns
// are re-submitted to the prober, and restoration watch sets are pushed to
// the shards exactly as the last pre-checkpoint barrier left them.
func restoreCheckpoint(c *Checkpoint, cfg Config, shards []*pathShard, inv *investigator, shardOf func(PathKey) int) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, this build reads %d", c.Version, CheckpointVersion)
	}
	if len(c.Pending) > 0 && inv.prober == nil {
		return fmt.Errorf("core: checkpoint carries %d pending probe campaigns but no prober is wired (SetProber before RestoreFrom)", len(c.Pending))
	}
	if inv.feed != nil {
		// A checkpoint written without the watchdog restores it empty; the
		// replay-gate arithmetic only holds when FeedSilence matches across
		// runs, the same config binding every other knob has.
		inv.feed.Restore(c.Feed)
	}
	at := func(key PathKey) *pathShard {
		if shardOf == nil {
			return shards[0]
		}
		return shards[shardOf(key)]
	}

	for _, p := range c.Paths {
		key := p.Key.unpack()
		s := at(key)
		st := &pathState{
			tags: make([]pathTag, 0, len(p.Tags)),
			path: append(bgp.Path(nil), p.Path...),
		}
		for _, tag := range p.Tags {
			st.tags = append(st.tags, pathTag{pop: tag.PoP, ends: popEnd{near: tag.Near, far: tag.Far}, since: tag.Since})
			// Promotions are derivable: a tag promotes once it has survived
			// the stability window from Since. Entries already promoted pop
			// as idempotent re-insertions.
			s.promos = append(s.promos, promo{due: tag.Since.Add(cfg.StableWindow), key: key, pop: tag.PoP, since: tag.Since})
		}
		s.paths[key] = st
		if s.pathsOfPeer[key.Peer] == nil {
			s.pathsOfPeer[key.Peer] = make(map[PathKey]bool)
		}
		s.pathsOfPeer[key.Peer][key] = true
		s.countPath(st.path, +1)
	}
	for _, s := range shards {
		heap.Init(&s.promos)
	}
	for _, e := range c.Stable {
		key := e.Key.unpack()
		s := at(key)
		byNear := s.stable[e.PoP]
		if byNear == nil {
			byNear = make(map[bgp.ASN]map[PathKey]popEnd)
			s.stable[e.PoP] = byNear
		}
		set := byNear[e.Near]
		if set == nil {
			set = make(map[PathKey]popEnd)
			byNear[e.Near] = set
		}
		set[key] = popEnd{near: e.Near, far: e.Far}
	}

	inv.incidents = append([]Incident(nil), c.Incidents...)
	inv.completed = append([]Outage(nil), c.Completed...)
	inv.tracker.cooling = append([]Outage(nil), c.Cooling...)
	// Checkpoints do not carry in-flight trace evidence (traces of resolved
	// outages persist through the store WAL instead); restored cooling
	// entries resume with empty traces, kept index-aligned.
	inv.tracker.coolingTraces = make([]*OutageTrace, len(inv.tracker.cooling))
	for _, oc := range c.Open {
		o := &openOutage{
			epicenter:  oc.Epicenter,
			signalPops: make(map[colo.PoP]bool, len(oc.SignalPoPs)),
			start:      oc.Start,
			lastSignal: oc.LastSignal,
			waiting:    make(map[PathKey]bool, len(oc.Waiting)),
			returned:   make(map[PathKey]bool, len(oc.Returned)),
			lastReturn: oc.LastReturn,
			affected:   make(map[bgp.ASN]bool, len(oc.Affected)),
			confirmed:  oc.Confirmed,
			dpChecked:  oc.DPChecked,
			merged:     oc.Merged,
		}
		for _, p := range oc.SignalPoPs {
			o.signalPops[p] = true
		}
		for _, k := range oc.Waiting {
			o.waiting[k.unpack()] = true
		}
		for _, k := range oc.Returned {
			o.returned[k.unpack()] = true
		}
		for _, a := range oc.Affected {
			o.affected[a] = true
		}
		inv.tracker.opened[oc.Epicenter] = o
	}
	inv.probeSeq = c.ProbeSeq
	for _, pc := range c.Pending {
		p := &pendingConfirmation{
			id:         pc.ID,
			at:         pc.At,
			deadline:   pc.Deadline,
			epicenter:  pc.Epicenter,
			candidates: append([]colo.PoP(nil), pc.Candidates...),
			signalPop:  pc.SignalPoP,
			affected:   append([]bgp.ASN(nil), pc.Affected...),
			paths:      pc.Paths,
			waiting:    make(map[PathKey]bool, len(pc.Waiting)),
			returned:   make(map[PathKey]bool, len(pc.Returned)),
			lastReturn: pc.LastReturn,
		}
		for _, r := range pc.Recs {
			p.recs = append(p.recs, divertRec{key: r.Key.unpack(), ends: popEnd{near: r.Near, far: r.Far}})
		}
		for _, k := range pc.Waiting {
			p.waiting[k.unpack()] = true
		}
		for _, k := range pc.Returned {
			p.returned[k.unpack()] = true
		}
		inv.pending[p.id] = p
	}
	// Re-submit the interrupted campaigns in park order: the previous
	// process's prober died with its in-flight measurements, so the restored
	// one measures them afresh; a deterministic prober delivers the same
	// verdicts at the next bin close that the uninterrupted run collected.
	// No ProbeRequested hook fires — the event was already published and
	// persisted before the checkpoint.
	for _, id := range inv.pendingIDs() {
		p := inv.pending[id]
		inv.prober.Submit(ProbeRequest{
			ID:         p.id,
			At:         p.at,
			SignalPoP:  p.signalPop,
			Epicenter:  p.epicenter,
			Candidates: append([]colo.PoP(nil), p.candidates...),
		})
	}

	// Reinstate the restoration watch sets the last barrier distributed.
	sets := inv.tracker.watchSets(len(shards), shardOf)
	if len(inv.pending) > 0 {
		pendSets := inv.pendingWatchSets(len(shards), shardOf)
		for i := range sets {
			sets[i] = append(sets[i], pendSets[i]...)
		}
	}
	for i, s := range shards {
		s.watches = sets[i]
	}
	return nil
}
