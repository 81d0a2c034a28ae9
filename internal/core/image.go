package core

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/metrics"
)

// The checkpoint image is the encoded form of a checkpoint's two big
// sections, kept alive between captures so that a capture costs what
// changed since the previous one, not what is monitored. Each section is a
// list of pages — runs of consecutive records in checkpoint order. Shards
// note the path keys and stable entries they touch (pathShard.touchPath,
// touchStable); a capture re-encodes exactly those, rebuilds the pages they
// fall into, and shares every other page with the checkpoints captured
// before. A page is never written once built.
//
// Building the image from the shard maps (buildImage) is the same merge
// with every record changed and no pages to merge into. It is the cold
// start — first capture, first capture after RestoreFrom, a shard whose
// dirty lists overflowed — and what the tests compare every warm capture
// against.

// pageRecords caps a page. A capture rewrites every page a change falls
// into, so smaller pages copy less per scattered change; larger ones mean
// fewer chunks to walk and concatenate.
const pageRecords = 32

// ordered is a record key with the section's order.
type ordered[K any] interface {
	comparable
	compare(K) int
}

// stableKey orders the stable section: by (pop, near) group, then path key.
type stableKey struct {
	pop  colo.PoP
	near bgp.ASN
	sortKey
}

func (a stableKey) compare(b stableKey) int {
	if c := cmpPoP(a.pop, b.pop); c != 0 {
		return c
	}
	if c := cmp.Compare(a.near, b.near); c != 0 {
		return c
	}
	return a.sortKey.compare(b.sortKey)
}

// page is a run of consecutive records: record i has key keys[i] and is
// enc[ends[i-1]:ends[i]]. (A decoded checkpoint holds a section as one page
// of enc alone: nothing merges into it.)
type page[K ordered[K]] struct {
	keys []K
	ends []uint32
	enc  []byte
}

// section is one of the two big checkpoint sections in encoded form: n
// records, size bytes, in pages.
type section[K ordered[K]] struct {
	n, size int
	pages   []*page[K]
}

func sectionOf[K ordered[K]](pages []*page[K]) section[K] {
	s := section[K]{pages: pages}
	for _, pg := range pages {
		s.n += len(pg.keys)
		s.size += len(pg.enc)
	}
	return s
}

func (s section[K]) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(s.n))
	for _, pg := range s.pages {
		b = append(b, pg.enc...)
	}
	return b
}

// each calls read once per record of the section, stopping at the first
// malformed one.
func (s section[K]) each(read func(r *ckptReader)) error {
	for _, pg := range s.pages {
		r := ckptReader{b: pg.enc}
		for len(r.b) > 0 {
			if read(&r); r.err != nil {
				return r.err
			}
		}
	}
	return nil
}

// dirtyRec is what a capture knows of a record that changed: its key and
// how it reads now.
type dirtyRec[K any] interface {
	recKey() K
	// appendRecord appends the record as it stands, or reports it gone.
	appendRecord(b []byte) (out []byte, live bool)
}

// pageBuilder accumulates the records of a run of rebuilt pages, laid out
// like a page of any length.
type pageBuilder[K ordered[K], D dirtyRec[K]] struct {
	keys []K
	ends []int
	enc  []byte
}

// copyRange takes over records i..j-1 of pg as they are.
func (b *pageBuilder[K, D]) copyRange(pg *page[K], i, j int) {
	if i == j {
		return
	}
	from := 0
	if i > 0 {
		from = int(pg.ends[i-1])
	}
	shift := len(b.enc) - from
	b.keys = append(b.keys, pg.keys[i:j]...)
	b.enc = append(b.enc, pg.enc[from:pg.ends[j-1]]...)
	for _, end := range pg.ends[i:j] {
		b.ends = append(b.ends, int(end)+shift)
	}
}

// merge adds pg's records with the dirty ones applied: each replaces or
// deletes the record pg has under its key, or inserts one.
func (b *pageBuilder[K, D]) merge(pg *page[K], dirty []D) {
	keys := pg.keys
	b.keys = slices.Grow(b.keys, len(keys)+len(dirty))
	b.ends = slices.Grow(b.ends, len(keys)+len(dirty))
	b.enc = slices.Grow(b.enc, len(pg.enc)+32*len(dirty)) // a guess: stable records take 17 bytes, paths 37
	i := 0
	for _, d := range dirty {
		key := d.recKey()
		j := i + sort.Search(len(keys)-i, func(k int) bool { return keys[i+k].compare(key) >= 0 })
		b.copyRange(pg, i, j)
		if i = j; i < len(keys) && keys[i] == key {
			i++
		}
		var live bool
		if b.enc, live = d.appendRecord(b.enc); live {
			b.keys = append(b.keys, key)
			b.ends = append(b.ends, len(b.enc))
		}
	}
	b.copyRange(pg, i, len(keys))
}

// flush cuts what has accumulated into pages of equal size, none over
// pageRecords, and appends them to pages.
func (b *pageBuilder[K, D]) flush(pages []*page[K]) []*page[K] {
	n := len(b.keys)
	parts := (n + pageRecords - 1) / pageRecords
	for p := 0; p < parts; p++ {
		i, j := p*n/parts, (p+1)*n/parts
		from := 0
		if i > 0 {
			from = b.ends[i-1]
		}
		pg := &page[K]{
			keys: slices.Clone(b.keys[i:j]),
			ends: make([]uint32, j-i),
			enc:  slices.Clone(b.enc[from:b.ends[j-1]]),
		}
		for k := range pg.ends {
			pg.ends[k] = uint32(b.ends[i+k] - from)
		}
		pages = append(pages, pg)
	}
	b.keys, b.ends, b.enc = b.keys[:0], b.ends[:0], b.enc[:0]
	return pages
}

// maxBuilderBytes is the most encoding a builder keeps allocated between
// captures: room for a busy interval's runs, not for a cold build's.
const maxBuilderBytes = 1 << 16

// mergePages applies dirty — ascending, one entry per key — to old and
// returns the new page list. Each page takes the dirty keys below its
// successor's first key; runs of touched pages are rebuilt together and
// re-cut, and a rebuilt run that ends under half a page absorbs the clean
// page after it, so deletions do not leave a trail of slivers.
func (b *pageBuilder[K, D]) mergePages(old []*page[K], dirty []D) []*page[K] {
	if len(dirty) == 0 {
		return old
	}
	pages := make([]*page[K], 0, len(old)+len(dirty)/pageRecords+1)
	d := 0
	for i, pg := range old {
		to := len(dirty)
		if i+1 < len(old) {
			next := old[i+1].keys[0]
			to = d + sort.Search(len(dirty)-d, func(k int) bool { return dirty[d+k].recKey().compare(next) >= 0 })
		}
		if to == d && (len(b.keys) == 0 || len(b.keys) >= pageRecords/2) {
			pages = append(b.flush(pages), pg)
			continue
		}
		b.merge(pg, dirty[d:to])
		d = to
	}
	b.merge(&page[K]{}, dirty[d:]) // only an image without pages leaves any
	pages = b.flush(pages)
	if cap(b.enc) > maxBuilderBytes {
		*b = pageBuilder[K, D]{}
	}
	return pages
}

// dirtyPath is a path whose record changed (st is its current state) or
// went away (st is nil).
type dirtyPath struct {
	sortKey
	st *pathState
}

func (d dirtyPath) recKey() sortKey { return d.sortKey }

func (d dirtyPath) appendRecord(b []byte) ([]byte, bool) {
	if d.st == nil {
		return b, false
	}
	var buf [8]pathTag
	tags := append(buf[:0], d.st.tags...)
	slices.SortFunc(tags, func(x, y pathTag) int { return cmpPoP(x.pop, y.pop) })
	return appendPathRecord(b, d.sortKey, d.st.path, tags), true
}

// dirtyStable is a stable entry that changed (live, with its current far
// end) or went away.
type dirtyStable struct {
	stableKey
	far  bgp.ASN
	live bool
}

func (d dirtyStable) recKey() stableKey { return d.stableKey }

func (d dirtyStable) appendRecord(b []byte) ([]byte, bool) {
	if !d.live {
		return b, false
	}
	// The group's near is what is recorded, as the maps are keyed.
	return appendStableRecord(b, d.pop, popEnd{near: d.near, far: d.far}, d.sortKey), true
}

// ckptImage is the two sections' pages, with the builders that rebuild them.
type ckptImage struct {
	paths  []*page[sortKey]
	stable []*page[stableKey]

	pathBuilder   pageBuilder[sortKey, dirtyPath]
	stableBuilder pageBuilder[stableKey, dirtyStable]
}

// sortMerge sorts what the shards reported dirty and merges the records as they
// now stand into the image. It reports how many distinct path records and
// stable entries that was. A key reported twice carries the same current
// state both times.
func (im *ckptImage) sortMerge(paths []dirtyPath, stable []dirtyStable) (nPaths, nStable int) {
	slices.SortFunc(paths, func(a, b dirtyPath) int { return a.sortKey.compare(b.sortKey) })
	paths = slices.CompactFunc(paths, func(a, b dirtyPath) bool { return a.sortKey == b.sortKey })
	slices.SortFunc(stable, func(a, b dirtyStable) int { return a.stableKey.compare(b.stableKey) })
	stable = slices.CompactFunc(stable, func(a, b dirtyStable) bool { return a.stableKey == b.stableKey })
	im.paths = im.pathBuilder.mergePages(im.paths, paths)
	im.stable = im.stableBuilder.mergePages(im.stable, stable)
	return len(paths), len(stable)
}

// buildImage encodes the shards' whole path and stable state.
func buildImage(shards []*pathShard) (im *ckptImage, nPaths, nStable int) {
	var groups []stableKey // (pop, near) alone
	for _, s := range shards {
		nPaths += len(s.paths)
		for pop, byNear := range s.stable {
			for near, set := range byNear {
				groups = append(groups, stableKey{pop: pop, near: near})
				nStable += len(set)
			}
		}
	}
	paths := make([]dirtyPath, 0, nPaths)
	for _, s := range shards {
		for key, st := range s.paths {
			paths = append(paths, dirtyPath{makeSortKey(key), st})
		}
	}
	// The baseline is already grouped by (pop, near) inside each shard:
	// ordering the groups and then each group's few keys costs a fraction of
	// one sort over every entry, and sortMerge finds the list in order.
	slices.SortFunc(groups, stableKey.compare)
	stable := make([]dirtyStable, 0, nStable)
	for _, g := range slices.Compact(groups) {
		from := len(stable)
		for _, s := range shards {
			for key, ends := range s.stable[g.pop][g.near] {
				stable = append(stable, dirtyStable{stableKey{g.pop, g.near, makeSortKey(key)}, ends.far, true})
			}
		}
		slices.SortFunc(stable[from:], func(a, b dirtyStable) int { return a.sortKey.compare(b.sortKey) })
	}
	im = &ckptImage{}
	nPaths, nStable = im.sortMerge(paths, stable)
	return im, nPaths, nStable
}

// checkpointer owns a pipeline's checkpoint image. It is used only where a
// checkpoint may be captured: with every shard quiescent.
type checkpointer struct {
	image *ckptImage
	stats *metrics.CheckpointStats
}

// refresh brings the image up to date with the shards and restarts their
// dirty tracking: warm from the dirty lists when there is an image and
// every shard tracked every change since it was last refreshed, cold from
// the maps otherwise.
func (cp *checkpointer) refresh(shards []*pathShard) {
	warm := cp.image != nil
	for _, s := range shards {
		warm = warm && s.tracking
	}
	var nPaths, nStable int
	if warm {
		var (
			paths  []dirtyPath
			stable []dirtyStable
		)
		for _, s := range shards {
			paths = slices.Grow(paths, len(s.dirtyPaths))
			for _, key := range s.dirtyPaths {
				paths = append(paths, dirtyPath{makeSortKey(key), s.paths[key]})
			}
			stable = slices.Grow(stable, len(s.dirtyStable))
			for _, e := range s.dirtyStable {
				ends, live := s.stable[e.pop][e.near][e.key]
				stable = append(stable, dirtyStable{stableKey{e.pop, e.near, makeSortKey(e.key)}, ends.far, live})
			}
		}
		nPaths, nStable = cp.image.sortMerge(paths, stable)
	} else {
		cp.image, nPaths, nStable = buildImage(shards)
	}
	for _, s := range shards {
		s.tracking, s.dirtyPaths, s.dirtyStable = true, s.dirtyPaths[:0], s.dirtyStable[:0]
	}
	if cp.stats != nil {
		cp.stats.Captures.Add(1)
		if !warm {
			cp.stats.ColdRebuilds.Add(1)
		}
		cp.stats.DirtyPaths.Store(int64(nPaths))
		cp.stats.DirtyStable.Store(int64(nStable))
	}
}
