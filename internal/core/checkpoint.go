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
// The encoding is deterministic — every map is flattened in sorted order —
// so for one record stream the checkpoint bytes are identical regardless of
// shard count, and a checkpoint can be restored into an engine with any
// shard count. Restoring a checkpoint taken after record N and re-ingesting
// records N+1.. reproduces byte-for-byte the state and lifecycle-hook
// sequence of an uninterrupted run.
//
// The two big sections — paths and stable baseline — are held encoded, in
// pages that are never written once built: a captured checkpoint shares
// them with the pipeline's checkpoint image (image.go), a decoded one
// points into the buffer it was decoded from. A captured checkpoint
// therefore stays valid however far the pipeline runs on, to be encoded
// whenever; a decoded one for as long as its buffer is left alone.
type Checkpoint struct {
	Version int
	// BinStart is the bin clock position: the start of the bin the next
	// record falls into. Captured at a barrier that is the closing bin's
	// end, unless the record that closed it lies across an idle gap the
	// clock fast-forwards over: then it is that record's bin.
	BinStart time.Time
	// Records counts the source records whose effects this checkpoint
	// includes; recovery resumes ingestion at record offset Records.
	Records uint64
	// OpSeq is the fan-out's global route-op sequence counter.
	OpSeq uint64
	// ProbeSeq is the investigator's campaign-id counter.
	ProbeSeq uint64

	paths  section[sortKey]
	stable section[stableKey]

	checkpointTail
}

// NumPaths is the number of monitored paths the checkpoint carries.
func (c *Checkpoint) NumPaths() int { return c.paths.n }

// NumStable is the number of stable-baseline entries the checkpoint carries.
func (c *Checkpoint) NumStable() int { return c.stable.n }

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

// sortKey is a path key flattened to integers that compare in cmpKey order
// — checkpoint order: sorting and merging move 32-byte entries and never
// call into netip, and a record's key bytes are written straight from it.
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

func appendKey(b []byte, k sortKey) []byte {
	b = binary.AppendUvarint(b, uint64(k.peer))
	if k.width == 32 {
		return binary.BigEndian.AppendUint32(append(b, 4, k.bits), uint32(k.lo))
	}
	b = binary.BigEndian.AppendUint64(append(b, 6, k.bits), k.hi)
	return binary.BigEndian.AppendUint64(b, k.lo)
}

// appendPathRecord encodes one path record; tags must be sorted by PoP.
func appendPathRecord(b []byte, k sortKey, path bgp.Path, tags []pathTag) []byte {
	b = appendKey(b, k)
	b = binary.AppendUvarint(b, uint64(len(path)))
	for _, hop := range path {
		b = binary.AppendUvarint(b, uint64(hop))
	}
	b = binary.AppendUvarint(b, uint64(len(tags)))
	for i := range tags {
		t := &tags[i]
		b = appendPoP(b, t.pop)
		b = binary.AppendUvarint(b, uint64(t.ends.near))
		b = binary.AppendUvarint(b, uint64(t.ends.far))
		b = appendTime(b, t.since)
	}
	return b
}

// appendStableRecord encodes one stable-baseline membership: k is stable at
// pop under the near-end AS grouping, with the recorded far end.
func appendStableRecord(b []byte, pop colo.PoP, ends popEnd, k sortKey) []byte {
	b = appendPoP(b, pop)
	b = binary.AppendUvarint(b, uint64(ends.near))
	b = binary.AppendUvarint(b, uint64(ends.far))
	return appendKey(b, k)
}

// Encode renders the checkpoint as its canonical byte encoding: the header,
// the two big sections as they are held, and the small sections marshaled
// now. Because every collection is sorted at capture, encoding the same
// detection state always yields the same bytes.
func (c *Checkpoint) Encode() ([]byte, error) { return c.AppendEncode(nil) }

// AppendEncode appends the encoding Encode returns to b — what a saver
// that writes one checkpoint at a time calls with the buffer of its
// previous save, so a 720 KB checkpoint is not 720 KB of garbage. On error
// b is returned as it was passed.
func (c *Checkpoint) AppendEncode(b []byte) ([]byte, error) {
	tail, err := json.Marshal(&c.checkpointTail)
	if err != nil {
		return b, fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	b = slices.Grow(b, 96+c.paths.size+c.stable.size+len(tail))
	b = append(b, checkpointMagic...)
	b = binary.AppendUvarint(b, uint64(c.Version))
	b = appendTime(b, c.BinStart)
	b = binary.AppendUvarint(b, c.Records)
	b = binary.AppendUvarint(b, c.OpSeq)
	b = binary.AppendUvarint(b, c.ProbeSeq)
	b = c.paths.appendTo(b)
	b = c.stable.appendTo(b)
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

func (r *ckptReader) key() PathKey {
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
		return PathKey{}
	}
	return PathKey{Peer: peer, Prefix: netip.PrefixFrom(addr, bits)}
}

// pathRecord is one decoded path record. path and tags are reused from one
// read to the next: copy what must outlive it.
type pathRecord struct {
	key  PathKey
	path bgp.Path
	tags []pathTag
}

func (r *ckptReader) pathRecord(rec *pathRecord) {
	rec.key = r.key()
	rec.path, rec.tags = rec.path[:0], rec.tags[:0]
	for n := r.count(minHopBytes); n > 0 && r.err == nil; n-- {
		rec.path = append(rec.path, bgp.ASN(r.u32()))
	}
	for n := r.count(minTagBytes); n > 0 && r.err == nil; n-- {
		rec.tags = append(rec.tags, pathTag{pop: r.pop(), ends: popEnd{near: bgp.ASN(r.u32()), far: bgp.ASN(r.u32())}, since: r.time()})
	}
}

func (r *ckptReader) stableRecord() (pop colo.PoP, ends popEnd, key PathKey) {
	return r.pop(), popEnd{near: bgp.ASN(r.u32()), far: bgp.ASN(r.u32())}, r.key()
}

// readSection reads a count and walks that many records with read,
// validating them without keeping any: the section stays as the bytes it
// arrived in.
func readSection[K ordered[K]](r *ckptReader, minBytes int, read func()) (s section[K]) {
	n, start := r.count(minBytes), r.b
	for i := 0; i < n && r.err == nil; i++ {
		read()
	}
	if r.err == nil && n > 0 {
		enc := start[:len(start)-len(r.b)]
		s = section[K]{n: n, size: len(enc), pages: []*page[K]{{enc: enc}}}
	}
	return s
}

// DecodeCheckpoint parses an encoded checkpoint. It refuses anything but
// this build's version — a checkpoint written by a different encoding must
// never be half-restored — and any input with a count or length the
// remaining bytes cannot back, with a truncated field, or with bytes left
// over. The checkpoint's two big sections alias b.
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

	var rec pathRecord
	c.paths = readSection[sortKey](r, minPathBytes, func() { r.pathRecord(&rec) })
	c.stable = readSection[stableKey](r, minStableBytes, func() { r.stableRecord() })
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

// capture assembles a checkpoint from quiesced pipeline state: the image
// brought up to date for the two big sections, the small ones copied out of
// the fan-out and the investigator. The caller guarantees exclusive access
// to every shard (bin barrier, or a pipeline with no ops since its last
// barrier).
func (cp *checkpointer) capture(binStart time.Time, records uint64, fan *bgpstream.Fanout, shards []*pathShard, inv *investigator) *Checkpoint {
	cp.refresh(shards)
	c := &Checkpoint{
		Version:  CheckpointVersion,
		BinStart: binStart,
		Records:  records,
		OpSeq:    fan.Seq(),
		ProbeSeq: inv.probeSeq,
	}
	c.paths, c.stable = sectionOf(cp.image.paths), sectionOf(cp.image.stable)
	c.Sessions = fan.Tracker().Checkpoint()
	if inv.feed != nil {
		c.Feed = inv.feed.Checkpoint()
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

	var rec pathRecord
	err := c.paths.each(func(r *ckptReader) {
		if r.pathRecord(&rec); r.err != nil {
			return
		}
		key := rec.key
		s := at(key)
		st := &pathState{
			tags: append(make([]pathTag, 0, len(rec.tags)), rec.tags...),
			path: append(bgp.Path(nil), rec.path...),
		}
		for _, tag := range st.tags {
			// Promotions are derivable: a tag promotes once it has survived
			// the stability window from Since. Entries already promoted pop
			// as idempotent re-insertions.
			s.promos = append(s.promos, promo{due: tag.since.Add(cfg.StableWindow), key: key, pop: tag.pop, since: tag.since})
		}
		s.paths[key] = st
		if s.pathsOfPeer[key.Peer] == nil {
			s.pathsOfPeer[key.Peer] = make(map[PathKey]bool)
		}
		s.pathsOfPeer[key.Peer][key] = true
		s.countPath(st.path, +1)
	})
	if err != nil {
		return err
	}
	for _, s := range shards {
		heap.Init(&s.promos)
	}
	err = c.stable.each(func(r *ckptReader) {
		pop, ends, key := r.stableRecord()
		if r.err != nil {
			return
		}
		s := at(key)
		byNear := s.stable[pop]
		if byNear == nil {
			byNear = make(map[bgp.ASN]map[PathKey]popEnd)
			s.stable[pop] = byNear
		}
		set := byNear[ends.near]
		if set == nil {
			set = make(map[PathKey]popEnd)
			byNear[ends.near] = set
		}
		set[key] = ends
	})
	if err != nil {
		return err
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
