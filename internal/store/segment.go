package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// History segments are the incremental half of the snapshot story: at each
// compaction the store seals the outages and incidents accumulated since
// the previous compaction into one immutable, per-entry-framed segment file
// per history type, instead of rewriting the whole history into the
// manifest. A sealed segment is never modified; the set of segments plus
// the in-memory unsealed tail is the complete history, addressed by entry
// ordinal (0-based position in the resolved/incident sequence).
//
//	out-%016x.seg   resolved outages, one frame per entry
//	inc-%016x.seg   incidents, one frame per entry
//	out-%016x.idx   offset index: one frame of 8B big-endian frame offsets
//
// The segment name's hex field is the base ordinal: the position of the
// segment's first entry. The offset index makes a cursor page one seek: it
// is written alongside the segment at seal time and rebuilt by a full frame
// scan on open when missing or corrupt — the index is an accelerator, never
// the source of truth.
const (
	outSegPrefix = "out-"
	incSegPrefix = "inc-"
	idxExt       = ".idx"
)

// segment is one sealed, immutable history segment with its loaded offset
// index. offsets[i] is the file position of entry (base+i)'s frame; size is
// the file length, bounding the last frame.
type segment struct {
	path    string
	base    int
	offsets []int64
	size    int64
}

func (g *segment) count() int { return len(g.offsets) }

// idxPath derives the sidecar index path for a segment file.
func idxPath(segPath string) string {
	return segPath[:len(segPath)-len(".seg")] + idxExt
}

// sealSegment writes payloads as one framed segment file plus its offset
// index, both via tmp+rename so a crash leaves either a complete pair, a
// complete segment with a rebuildable missing index, or nothing.
func (s *Store) sealSegment(prefix string, base int, payloads [][]byte) (*segment, error) {
	path := filepath.Join(s.opts.Dir, segName(prefix, uint64(base)))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	offsets := make([]int64, 0, len(payloads))
	var off int64
	for _, p := range payloads {
		offsets = append(offsets, off)
		n, err := writeFrame(f, p)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		off += int64(n)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	g := &segment{path: path, base: base, offsets: offsets, size: off}
	if err := s.writeIndex(g); err != nil {
		// The segment itself is durable and the index rebuilds on open, so
		// a failed index write degrades, not fails.
		s.log.Warn("segment index write failed", "segment", filepath.Base(path), "err", err)
	}
	if s.m != nil {
		s.m.SegmentsSealed.Add(1)
	}
	return g, nil
}

// sealTail marshals an unsealed in-memory tail and seals it as one segment.
func sealTail[T any](s *Store, prefix string, base int, tail []T) (*segment, error) {
	payloads := make([][]byte, len(tail))
	for i := range tail {
		p, err := json.Marshal(&tail[i])
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		payloads[i] = p
	}
	return s.sealSegment(prefix, base, payloads)
}

// writeIndex persists a segment's offset index sidecar: a single frame
// whose payload is the big-endian 8-byte frame offsets in entry order.
func (s *Store) writeIndex(g *segment) error {
	payload := make([]byte, 8*len(g.offsets))
	for i, off := range g.offsets {
		binary.BigEndian.PutUint64(payload[8*i:], uint64(off))
	}
	path := idxPath(g.path)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := writeFrame(f, payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if s.m != nil {
		s.m.IndexWrites.Add(1)
	}
	return nil
}

// loadIndex reads and validates a segment's offset index against the
// segment file's size: offsets must be a single intact frame of 8-byte
// words, strictly increasing from 0 and inside the file. Any violation is
// an error — the caller falls back to a rebuild scan.
func loadIndex(segPath string, size int64) ([]int64, error) {
	b, err := os.ReadFile(idxPath(segPath))
	if err != nil {
		return nil, err
	}
	payload, n, err := readFrame(b)
	if err != nil || n != len(b) {
		return nil, fmt.Errorf("store: index %s invalid", filepath.Base(idxPath(segPath)))
	}
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("store: index %s: payload not offset-aligned", filepath.Base(idxPath(segPath)))
	}
	offsets := make([]int64, len(payload)/8)
	prev := int64(-1)
	for i := range offsets {
		off := int64(binary.BigEndian.Uint64(payload[8*i:]))
		if off <= prev || off >= size {
			return nil, fmt.Errorf("store: index %s: offset %d out of order or out of bounds", filepath.Base(idxPath(segPath)), off)
		}
		if i == 0 && off != 0 {
			return nil, fmt.Errorf("store: index %s: first offset %d != 0", filepath.Base(idxPath(segPath)), off)
		}
		offsets[i] = off
		prev = off
	}
	if size > 0 && len(offsets) == 0 {
		return nil, fmt.Errorf("store: index %s empty for non-empty segment", filepath.Base(idxPath(segPath)))
	}
	return offsets, nil
}

// rebuildIndex scans a segment's frames to reconstruct the offset index —
// the recovery path for a missing, truncated or garbage .idx file. The scan
// verifies every frame checksum, so a rebuilt index can never address a
// page the segment cannot serve. A torn or corrupt frame ends the scan:
// like WAL replay, recovery keeps the verified prefix and drops the rest
// (reconcileSealed squares the bookkeeping), rather than refusing to open.
func (s *Store) rebuildIndex(segPath string) ([]int64, int64, error) {
	b, err := os.ReadFile(segPath)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	var offsets []int64
	off := 0
	for off < len(b) {
		_, n, err := readFrame(b[off:])
		if err != nil {
			s.log.Error("segment frame corrupt; keeping verified prefix",
				"segment", filepath.Base(segPath), "offset", off, "entries", len(offsets), "err", err)
			break
		}
		offsets = append(offsets, int64(off))
		off += n
	}
	if s.m != nil {
		s.m.IndexRebuilds.Add(1)
	}
	return offsets, int64(off), nil
}

// loadSegments discovers and validates the sealed history segments of one
// prefix: ascending by base ordinal, contiguous from zero. Each segment's
// index is loaded, or rebuilt (and re-persisted, best effort) when missing
// or invalid. Non-contiguous trailing segments are unreachable by ordinal
// and are dropped with a warning rather than failing recovery.
func (s *Store) loadSegments(prefix string, entries []os.DirEntry) ([]*segment, error) {
	var bases []uint64
	for _, e := range entries {
		if n, ok := parseSeg(e.Name(), prefix); ok {
			bases = append(bases, n)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	segs := make([]*segment, 0, len(bases))
	next := 0
	for _, base := range bases {
		if int(base) != next {
			s.log.Warn("non-contiguous history segment dropped",
				"segment", segName(prefix, base), "expected_base", next)
			break
		}
		path := filepath.Join(s.opts.Dir, segName(prefix, base))
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		g := &segment{path: path, base: int(base), size: fi.Size()}
		offsets, err := loadIndex(path, fi.Size())
		if err == nil && validIndexTail(offsets, fi.Size()) {
			g.offsets = offsets
		} else {
			if err == nil {
				err = fmt.Errorf("store: index does not cover segment")
			}
			s.log.Warn("segment index missing or invalid; rebuilding by scan",
				"segment", filepath.Base(path), "err", err)
			offsets, size, rerr := s.rebuildIndex(path)
			if rerr != nil {
				return nil, rerr
			}
			g.offsets, g.size = offsets, size
			if werr := s.writeIndex(g); werr != nil {
				s.log.Warn("segment index rewrite failed", "segment", filepath.Base(path), "err", werr)
			}
		}
		segs = append(segs, g)
		next += g.count()
	}
	return segs, nil
}

// validIndexTail cross-checks that the index's last offset leaves room for
// at least a frame header before end-of-file — a cheap guard against an
// index paired with a truncated segment. The frame itself is CRC-verified
// at read time.
func validIndexTail(offsets []int64, size int64) bool {
	if len(offsets) == 0 {
		return size == 0
	}
	return offsets[len(offsets)-1]+frameHeaderSize <= size
}

// sealedTotal is the entry count across a segment set (the base of the
// unsealed in-memory tail).
func sealedTotal(segs []*segment) int {
	if len(segs) == 0 {
		return 0
	}
	last := segs[len(segs)-1]
	return last.base + last.count()
}

// readSealed returns the framed payloads of entries [start, start+count)
// from a segment set, one ReadAt per touched segment. Bounds must be
// pre-clamped to the sealed total.
func (s *Store) readSealed(segs []*segment, start, count int) ([][]byte, error) {
	out := make([][]byte, 0, count)
	for _, g := range segs {
		if count == 0 {
			break
		}
		if start >= g.base+g.count() {
			continue
		}
		lo := start - g.base
		hi := lo + count
		if hi > g.count() {
			hi = g.count()
		}
		payloads, err := s.readSegmentRange(g, lo, hi)
		if err != nil {
			return nil, err
		}
		out = append(out, payloads...)
		start += hi - lo
		count -= hi - lo
	}
	if count != 0 {
		return nil, fmt.Errorf("store: sealed read past segment end (%d entries short)", count)
	}
	return out, nil
}

// readSegmentRange reads entries [lo, hi) of one segment in a single
// positioned read and splits them back into frame payloads.
func (s *Store) readSegmentRange(g *segment, lo, hi int) ([][]byte, error) {
	startOff := g.offsets[lo]
	endOff := g.size
	if hi < g.count() {
		endOff = g.offsets[hi]
	}
	f, err := os.Open(g.path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	buf := make([]byte, endOff-startOff)
	if _, err := f.ReadAt(buf, startOff); err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", filepath.Base(g.path), err)
	}
	if s.m != nil {
		s.m.SegmentReads.Add(1)
	}
	payloads := make([][]byte, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rel := g.offsets[i] - startOff
		payload, _, err := readFrame(buf[rel:])
		if err != nil {
			return nil, fmt.Errorf("store: segment %s entry %d: %w", filepath.Base(g.path), g.base+i-lo, err)
		}
		payloads = append(payloads, payload)
	}
	return payloads, nil
}

// lru is a small decoded-entry cache keyed by history ordinal: the resident
// set of the disk-backed read path. All methods are safe for concurrent
// use; the zero value is not usable, use newLRU.
type lru[T any] struct {
	mu   sync.Mutex
	cap  int
	m    map[int]*lruNode[T]
	head *lruNode[T] // most recently used
	tail *lruNode[T] // least recently used
}

type lruNode[T any] struct {
	key        int
	val        T
	prev, next *lruNode[T]
}

func newLRU[T any](capacity int) *lru[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[T]{cap: capacity, m: make(map[int]*lruNode[T], capacity)}
}

func (c *lru[T]) get(key int) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[key]
	if !ok {
		var zero T
		return zero, false
	}
	c.moveToFront(n)
	return n.val, true
}

func (c *lru[T]) put(key int, val T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[key]; ok {
		n.val = val
		c.moveToFront(n)
		return
	}
	n := &lruNode[T]{key: key, val: val}
	c.m[key] = n
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
	if len(c.m) > c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.m, evict.key)
	}
}

func (c *lru[T]) moveToFront(n *lruNode[T]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	n.prev, n.next = nil, c.head
	c.head.prev = n
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lru[T]) unlink(n *lruNode[T]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
}

// readEntries serves history entries [start, start+count) of one type:
// unsealed entries from the in-memory tail, sealed entries through the
// decoded-entry LRU with page reads off the segment offsets for misses.
// Disk I/O happens outside the store lock — segments are immutable and the
// captured slice headers stay valid across concurrent compactions. A range
// inside the tail is returned as a capped subslice of it, not a copy: the
// tail only ever grows past the captured length, so its entries never
// change under a reader.
func readEntries[T any](s *Store, segs []*segment, base int, tail []T, cache *lru[T], start, count int, useCache bool) ([]T, error) {
	if start < 0 || count < 0 {
		return nil, fmt.Errorf("store: negative read range [%d,+%d)", start, count)
	}
	total := base + len(tail)
	if start > total {
		start = total
	}
	if start+count > total {
		count = total - start
	}
	if start >= base {
		return tail[start-base : start-base+count : start-base+count], nil
	}
	out := make([]T, 0, count)
	if sealedN := base - start; sealedN > 0 {
		if sealedN > count {
			sealedN = count
		}
		got, err := readSealedEntries(s, segs, cache, start, sealedN, useCache)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
		start += sealedN
		count -= sealedN
	}
	if count > 0 {
		out = append(out, tail[start-base:start-base+count]...)
	}
	return out, nil
}

// readSealedEntries resolves sealed ordinals [start, start+count) through
// the LRU, reading and decoding only the cache-miss spans.
func readSealedEntries[T any](s *Store, segs []*segment, cache *lru[T], start, count int, useCache bool) ([]T, error) {
	out := make([]T, count)
	have := make([]bool, count)
	missFrom, missTo := -1, -1 // ordinal span still needing disk
	if useCache && cache != nil {
		hits, misses := int64(0), int64(0)
		for i := 0; i < count; i++ {
			if v, ok := cache.get(start + i); ok {
				out[i], have[i] = v, true
				hits++
				continue
			}
			misses++
			if missFrom == -1 {
				missFrom = start + i
			}
			missTo = start + i + 1
		}
		if s.m != nil {
			s.m.ReadCacheHits.Add(hits)
			s.m.ReadCacheMisses.Add(misses)
		}
		if missFrom == -1 {
			return out, nil
		}
	} else {
		missFrom, missTo = start, start+count
	}
	payloads, err := s.readSealed(segs, missFrom, missTo-missFrom)
	if err != nil {
		return nil, err
	}
	for i, payload := range payloads {
		ord := missFrom + i
		if have[ord-start] {
			continue // was cached; no need to re-decode
		}
		var v T
		if err := json.Unmarshal(payload, &v); err != nil {
			return nil, fmt.Errorf("store: sealed entry %d: %w", ord, err)
		}
		out[ord-start] = v
		have[ord-start] = true
		if useCache && cache != nil {
			cache.put(ord, v)
		}
	}
	return out, nil
}
