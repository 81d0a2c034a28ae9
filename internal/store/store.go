// Package store is the durable history layer of the live service: an
// append-only write-ahead log of detection lifecycle events (outage
// opened/updated/resolved, incident classified, bin closed) with periodic
// compaction into snapshot segments and a crash-tolerant recovery path.
//
// The daemon's problem is that its resolved-outage list and incident log
// otherwise live only in memory: a deploy, crash or OOM erases the
// detection record of a system whose whole point is reporting multi-hour
// infrastructure outages observed over months. The store closes that gap
// without touching the hot path's concurrency story: it is written
// synchronously from the event bus's sink — the ingestion goroutine, at bin
// boundaries, the only points where outage state changes — so it needs no
// locking against the detection engine, and API reads continue to come from
// the server's immutable snapshot, never from disk.
//
// # On-disk layout
//
// A data directory holds at most one active snapshot segment and one WAL:
//
//	snap-%016x.snap   materialized history as of sequence N (atomic rename)
//	wal-%016x.log     events with sequence > N, one frame each
//
// Every frame is length-prefixed and checksummed:
//
//	[4B big-endian payload length][4B CRC32-Castagnoli][JSON payload]
//
// The WAL payload is one events.Event; the snapshot payload is the full
// materialized state (resolved outages, incidents, last bin, event tail).
// When the WAL grows past Options.CompactBytes the store — at a bin
// boundary — writes a fresh snapshot segment, rotates to an empty WAL and
// deletes the superseded files, so disk use is bounded by the history size
// plus one WAL window rather than by total event volume.
//
// # Recovery and the equivalence guarantee
//
// Open loads the newest valid snapshot and replays the WAL on top of it,
// verifying each frame's checksum and sequence contiguity. A torn or
// corrupt tail — the signature of a crash mid-write — is truncated at the
// last intact frame and counted, after which appends continue normally.
// Recovery hands back the materialized history plus the retained event
// tail, which the daemon uses to seed the server's boot snapshot, the event
// bus's starting sequence (SSE ids stay gapless across restarts) and its
// Last-Event-ID replay ring. Because detection is deterministic for a given
// record stream, a restarted daemon re-ingests its source from the
// beginning while events.GateHooks suppresses re-publication of the
// prefix already persisted here — so a restart mid-archive followed by
// replay of the remainder yields exactly the resolved-outage set of one
// uninterrupted batch NewDetector run.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/metrics"
	"kepler/internal/slogx"
)

const (
	frameHeaderSize = 8        // 4B length + 4B CRC32C
	maxFrameSize    = 64 << 20 // sanity bound against corrupt length words
	walPrefix       = "wal-"
	snapPrefix      = "snap-"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store.
type Options struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// CompactBytes is the WAL size past which the next bin boundary
	// triggers compaction into a snapshot segment (default 8 MiB).
	CompactBytes int64
	// TailEvents is how many recent events the store retains in memory and
	// in snapshot segments for SSE resume across restarts (default 4096).
	TailEvents int
	// TraceCap bounds the provenance traces retained alongside the resolved
	// outages (Config.Tracing): when exceeded, the oldest outages' traces are
	// dropped first and History.TraceBase advances, keeping the
	// resolved-index-to-trace mapping intact (default 1024).
	TraceCap int
	// ReadCache is the capacity, in decoded entries per history type, of
	// the LRU fronting sealed-segment reads (default 4096). It bounds the
	// resident memory of the disk-backed read path: pages outside the cache
	// cost one positioned read of the segment file.
	ReadCache int
	// Metrics receives append/flush/compaction/recovery counters. Optional.
	Metrics *metrics.StoreStats
	// Logger receives recovery, compaction and corruption reports. Nil
	// discards them; counterpart counters still reach Metrics either way.
	Logger *slog.Logger
}

func (o *Options) defaults() {
	if o.CompactBytes <= 0 {
		o.CompactBytes = 8 << 20
	}
	if o.TailEvents <= 0 {
		o.TailEvents = 4096
	}
	if o.TraceCap <= 0 {
		o.TraceCap = 1024
	}
	if o.ReadCache <= 0 {
		o.ReadCache = 4096
	}
}

// History is the materialized state recovery hands back: everything the
// daemon needs to resume serving as if it had never stopped.
type History struct {
	// LastSeq is the sequence of the newest durable event; the bus resumes
	// publishing at LastSeq+1 and GateHooks suppresses that many replayed
	// callbacks.
	LastSeq uint64
	// LastBin is the close time of the newest persisted bin.
	LastBin time.Time
	// Resolved holds every persisted completed outage, oldest first.
	Resolved []core.Outage
	// Incidents holds every persisted classified signal, oldest first.
	Incidents []core.Incident
	// PendingProbes holds the probe campaigns that were requested but had
	// neither confirmed nor expired when the process stopped, ascending by
	// campaign id — the mid-campaign state a restarted daemon serves
	// immediately and re-parks during catch-up re-ingestion.
	PendingProbes []core.PendingConfirmation
	// Traces holds the retained provenance traces (Config.Tracing): trace j
	// describes resolved outage TraceBase+j. TraceBase counts traces dropped
	// by Options.TraceCap (and resolved outages persisted before tracing
	// produced any trace events).
	Traces    []core.OutageTrace
	TraceBase int
	// Tail is the retained recent-event window (ascending seq), the seed
	// for the bus's Last-Event-ID replay ring.
	Tail []events.Event
}

// Store is a WAL-backed outage history. Append runs on the ingestion
// goroutine (via the bus sink); History and Stats may be called from
// anywhere. Use Open; the zero value is not usable.
type Store struct {
	opts Options
	m    *metrics.StoreStats

	mu      sync.Mutex
	seq     uint64
	lastBin time.Time
	// History lives in two tiers: sealed immutable segments on disk (with
	// loaded offset indexes) and the unsealed in-memory tail accumulated
	// since the last compaction. outBase/incBase are the ordinals of the
	// first unsealed entry; totals are base + len(tail).
	outSegs   []*segment
	incSegs   []*segment
	outBase   int
	incBase   int
	outTail   []core.Outage
	incTail   []core.Incident
	pending   map[uint64]core.PendingConfirmation // open probe campaigns
	tail      *events.Ring                        // retains the last opts.TailEvents events
	traces    []core.OutageTrace                  // trace j -> resolved outage traceBase+j
	traceBase int

	outCache *lru[core.Outage]   // decoded sealed-outage LRU
	incCache *lru[core.Incident] // decoded sealed-incident LRU

	f        *os.File
	bw       *bufio.Writer
	walBase  uint64
	walBytes int64
	closed   bool

	log *slog.Logger
}

// snapState is the snapshot-manifest payload. Manifests are incremental:
// history entries live in sealed segments, so the manifest carries only the
// totals (plus the bounded pending/trace/tail state) and its size does not
// grow with history.
type snapState struct {
	Version       int                        `json:"version,omitempty"`
	Seq           uint64                     `json:"seq"`
	LastBin       time.Time                  `json:"last_bin"`
	ResolvedTotal int                        `json:"resolved_total,omitempty"`
	IncidentTotal int                        `json:"incident_total,omitempty"`
	Pending       []core.PendingConfirmation `json:"pending_probes,omitempty"`
	Traces        []core.OutageTrace         `json:"traces,omitempty"`
	TraceBase     int                        `json:"trace_base,omitempty"`
	Tail          []events.Event             `json:"tail"`
}

// snapVersionIncremental marks a manifest whose history is sealed in
// segments rather than inlined. It is the only version loadSnap accepts.
const snapVersionIncremental = 2

// Open opens (or initializes) the store in dir, recovering any persisted
// history: the newest valid snapshot segment is loaded, the WAL replayed on
// top with per-frame checksum and sequence verification, and a torn tail
// truncated. The store is ready for appends on return.
func Open(opts Options) (*Store, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	log := opts.Logger
	if log == nil {
		log = slogx.Discard()
	}
	s := &Store{
		opts:     opts,
		m:        opts.Metrics,
		log:      log,
		pending:  make(map[uint64]core.PendingConfirmation),
		tail:     events.NewRing(opts.TailEvents),
		outCache: newLRU[core.Outage](opts.ReadCache),
		incCache: newLRU[core.Incident](opts.ReadCache),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.log.Debug("history recovered",
		"seq", s.seq, "resolved", s.outBase+len(s.outTail), "incidents", s.incBase+len(s.incTail),
		"sealed_outages", s.outBase, "sealed_incidents", s.incBase, "segments", len(s.outSegs)+len(s.incSegs),
		"pending_probes", len(s.pending), "traces", len(s.traces), "wal_bytes", s.walBytes)
	return s, nil
}

// segName renders a segment file name for a base sequence.
func segName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s%016x%s", prefix, seq, segExt(prefix))
}

func segExt(prefix string) string {
	switch prefix {
	case snapPrefix:
		return ".snap"
	case ckptPrefix:
		return ".ckpt"
	case outSegPrefix, incSegPrefix:
		return ".seg"
	default:
		return ".log"
	}
}

// parseSeg extracts the base sequence from a segment file name.
func parseSeg(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, segExt(prefix)) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), segExt(prefix))
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover loads the sealed history segments and the newest valid snapshot
// manifest, replays the matching WAL, and leaves the store positioned for
// appends. store.Open never materializes sealed history into memory: only
// the manifest's bounded state (pending probes, traces, event tail) and
// the unsealed WAL window are resident afterwards.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sweepCheckpointTmp(s.opts.Dir, entries)
	// Segments first: their entry counts are the authoritative sealed
	// totals the manifest is reconciled against.
	if s.outSegs, err = s.loadSegments(outSegPrefix, entries); err != nil {
		return err
	}
	if s.incSegs, err = s.loadSegments(incSegPrefix, entries); err != nil {
		return err
	}

	var snaps []uint64
	for _, e := range entries {
		if n, ok := parseSeg(e.Name(), snapPrefix); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })

	// Newest loadable snapshot wins; a corrupt one (torn rename is
	// prevented by tmp+rename, but disks lie) falls back to the next.
	for _, n := range snaps {
		st, err := s.loadSnap(segName(snapPrefix, n))
		if err != nil {
			s.log.Warn("snapshot skipped", "error", err)
			continue
		}
		s.seq = st.Seq
		s.lastBin = st.LastBin
		s.traces = st.Traces
		s.traceBase = st.TraceBase
		for _, p := range st.Pending {
			s.pending[p.ID] = p
		}
		for _, ev := range st.Tail {
			s.tail.Push(ev)
		}
		// History is sealed in segments; only the totals travel.
		s.outBase, s.incBase = st.ResolvedTotal, st.IncidentTotal
		break
	}
	s.walBase = s.seq

	if err := s.replayWAL(filepath.Join(s.opts.Dir, segName(walPrefix, s.walBase))); err != nil {
		return err
	}
	s.reconcileSealed()

	// Reopen the WAL for appending (creating it on first boot).
	f, err := os.OpenFile(filepath.Join(s.opts.Dir, segName(walPrefix, s.walBase)),
		os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.f = f
	s.walBytes = fi.Size()
	s.bw = bufio.NewWriter(f)
	return nil
}

// reconcileSealed resolves the overlap between sealed segments and the
// replayed WAL. A crash between segment sealing and the manifest rename
// leaves segments newer than the manifest: the first entries replayed from
// the WAL are then already sealed, so they are dropped from the unsealed
// tail (sealing preserves order, making the overlap exactly a prefix). The
// inverse — a manifest claiming more sealed entries than the segments hold
// — means segment files were lost; totals clamp to what is servable.
func (s *Store) reconcileSealed() {
	sealedOut, sealedInc := sealedTotal(s.outSegs), sealedTotal(s.incSegs)
	if over := sealedOut - s.outBase; over > 0 {
		if over > len(s.outTail) {
			s.log.Error("sealed outages exceed recovered history; clamping",
				"sealed", sealedOut, "recovered", s.outBase+len(s.outTail))
			over = len(s.outTail)
		}
		s.outTail = append([]core.Outage(nil), s.outTail[over:]...)
		s.outBase += over
	} else if over < 0 {
		s.log.Error("manifest outage total exceeds sealed segments; history truncated",
			"manifest_total", s.outBase, "sealed", sealedOut)
		s.outBase = sealedOut
	}
	if over := sealedInc - s.incBase; over > 0 {
		if over > len(s.incTail) {
			s.log.Error("sealed incidents exceed recovered history; clamping",
				"sealed", sealedInc, "recovered", s.incBase+len(s.incTail))
			over = len(s.incTail)
		}
		s.incTail = append([]core.Incident(nil), s.incTail[over:]...)
		s.incBase += over
	} else if over < 0 {
		s.log.Error("manifest incident total exceeds sealed segments; history truncated",
			"manifest_total", s.incBase, "sealed", sealedInc)
		s.incBase = sealedInc
	}
}

// loadSnap reads and validates one snapshot segment.
func (s *Store) loadSnap(name string) (*snapState, error) {
	b, err := os.ReadFile(filepath.Join(s.opts.Dir, name))
	if err != nil {
		return nil, err
	}
	payload, n, err := readFrame(b)
	if err != nil || n != len(b) {
		return nil, fmt.Errorf("store: snapshot %s invalid", name)
	}
	var st snapState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("store: snapshot %s: %w", name, err)
	}
	if st.Version != snapVersionIncremental {
		return nil, fmt.Errorf("store: snapshot %s has unsupported manifest version %d", name, st.Version)
	}
	return &st, nil
}

// replayWAL applies every intact frame of the WAL to the materialized
// state, truncating the file at the first torn or corrupt frame.
func (s *Store) replayWAL(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // first boot, or crash between snapshot and rotation
		}
		return fmt.Errorf("store: %w", err)
	}
	off := 0
	replayed := int64(0)
	for off < len(b) {
		payload, n, err := readFrame(b[off:])
		if err != nil {
			break // torn tail: truncate from here
		}
		var ev events.Event
		if json.Unmarshal(payload, &ev) != nil || ev.Seq != s.seq+1 {
			break // undecodable or non-contiguous: treat as corruption
		}
		s.apply(ev)
		off += n
		replayed++
	}
	if s.m != nil {
		s.m.RecoveredEvents.Add(replayed)
	}
	if off < len(b) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		s.log.Warn("torn WAL tail truncated", "wal", filepath.Base(path),
			"truncated_bytes", len(b)-off, "replayed_events", replayed)
		if s.m != nil {
			s.m.TornTails.Add(1)
			s.m.TruncatedBytes.Add(int64(len(b) - off))
		}
	}
	return nil
}

// readFrame parses one [len][crc][payload] frame from the head of b,
// returning the payload and total frame size.
func readFrame(b []byte) (payload []byte, frameLen int, err error) {
	if len(b) < frameHeaderSize {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n == 0 || n > maxFrameSize {
		return nil, 0, fmt.Errorf("store: implausible frame length %d", n)
	}
	if len(b) < frameHeaderSize+int(n) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload = b[frameHeaderSize : frameHeaderSize+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("store: frame checksum mismatch")
	}
	return payload, frameHeaderSize + int(n), nil
}

// writeFrame appends one framed payload to w.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return frameHeaderSize + len(payload), nil
}

// apply folds one event into the materialized history.
func (s *Store) apply(ev events.Event) {
	s.seq = ev.Seq
	switch ev.Kind {
	case events.KindOutageResolved:
		if ev.Outage != nil {
			s.outTail = append(s.outTail, *ev.Outage)
		}
	case events.KindIncident:
		if ev.Incident != nil {
			s.incTail = append(s.incTail, *ev.Incident)
		}
	case events.KindBinClosed:
		s.lastBin = ev.Time
	case events.KindProbeRequested:
		if ev.Pending != nil {
			s.pending[ev.Pending.ID] = *ev.Pending
		}
	case events.KindProbeConfirmed, events.KindProbeExpired:
		if ev.Probe != nil {
			delete(s.pending, ev.Probe.Pending.ID)
		}
	case events.KindTrace:
		if ev.Trace != nil {
			s.applyTrace(*ev.Trace)
		}
	}
	s.tail.Push(ev)
}

// applyTrace folds one provenance trace into the retained window. A trace
// event always follows its outage's resolved event, so it belongs to the
// newest resolved outage; the realignment below also makes recovery robust
// to histories whose older prefix predates tracing. Called with the lock
// held (or during single-threaded recovery).
func (s *Store) applyTrace(tr core.OutageTrace) {
	idx := s.outBase + len(s.outTail) - 1
	if idx < 0 {
		return // trace without a resolved outage: wiring anomaly, drop
	}
	switch {
	case len(s.traces) == 0:
		s.traceBase = idx
	case s.traceBase+len(s.traces) != idx:
		// Misaligned (tracing toggled mid-history): restart the window so at
		// least the newest traces map correctly.
		s.traces = s.traces[:0]
		s.traceBase = idx
	}
	s.traces = append(s.traces, tr)
	if drop := len(s.traces) - s.opts.TraceCap; drop > 0 {
		s.traces = append(s.traces[:0], s.traces[drop:]...)
		s.traceBase += drop
	}
}

// Append durably records one lifecycle event. Events must arrive in
// sequence order with no gaps (the bus sink guarantees this); a gap is a
// wiring bug and is rejected. Writes are buffered; the buffer is flushed to
// the OS at every bin close — the natural consistency point, since hooks
// only fire at bin boundaries — and fsynced at compaction and Close. A bin
// close that leaves the WAL over the compaction threshold triggers
// compaction before returning.
func (s *Store) Append(ev events.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append after Close")
	}
	if ev.Seq != s.seq+1 {
		return fmt.Errorf("store: sequence gap: append seq %d after %d", ev.Seq, s.seq)
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	n, err := writeFrame(s.bw, payload)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walBytes += int64(n)
	if s.m != nil {
		s.m.Appends.Add(1)
		s.m.AppendedBytes.Add(int64(n))
	}
	s.apply(ev)
	if ev.Kind == events.KindBinClosed {
		if err := s.bw.Flush(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if s.m != nil {
			s.m.Flushes.Add(1)
		}
		if s.walBytes >= s.opts.CompactBytes {
			return s.compact()
		}
	}
	return nil
}

// compact seals the unsealed history tail into fresh immutable segments
// (with offset indexes), writes an incremental snapshot manifest carrying
// only bounded state, rotates to an empty WAL, and deletes the superseded
// manifest/WAL files. Sealing happens before the manifest rename so a crash
// anywhere in between recovers cleanly: reconcileSealed drops the
// WAL-replayed prefix that is already sealed. Called with the lock held, at
// a bin boundary.
func (s *Store) compact() error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	if len(s.outTail) > 0 {
		g, err := sealTail(s, outSegPrefix, s.outBase, s.outTail)
		if err != nil {
			return err
		}
		s.outSegs = append(s.outSegs, g)
		s.outBase += len(s.outTail)
		s.outTail = nil
	}
	if len(s.incTail) > 0 {
		g, err := sealTail(s, incSegPrefix, s.incBase, s.incTail)
		if err != nil {
			return err
		}
		s.incSegs = append(s.incSegs, g)
		s.incBase += len(s.incTail)
		s.incTail = nil
	}

	st := snapState{
		Version:       snapVersionIncremental,
		Seq:           s.seq,
		LastBin:       s.lastBin,
		ResolvedTotal: s.outBase,
		IncidentTotal: s.incBase,
		Pending:       s.pendingSorted(),
		Traces:        s.traces,
		TraceBase:     s.traceBase,
		Tail:          s.tail.Events(),
	}
	payload, err := json.Marshal(&st)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	snapPath := filepath.Join(s.opts.Dir, segName(snapPrefix, s.seq))
	tmp := snapPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := writeFrame(f, payload); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	syncDir(s.opts.Dir)

	// Rotate: new WAL extends the snapshot just written.
	s.f.Close()
	nf, err := os.OpenFile(filepath.Join(s.opts.Dir, segName(walPrefix, s.seq)),
		os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.f = nf
	s.bw = bufio.NewWriter(nf)
	s.walBase = s.seq
	s.walBytes = 0
	syncDir(s.opts.Dir)

	// Superseded segments: every snapshot below the new one and every WAL
	// other than the one just rotated in (including orphans from earlier
	// crashes). Removal failures are harmless (retried next compaction).
	entries, _ := os.ReadDir(s.opts.Dir)
	for _, e := range entries {
		if n, ok := parseSeg(e.Name(), snapPrefix); ok && n < s.seq {
			os.Remove(filepath.Join(s.opts.Dir, e.Name()))
		}
		if n, ok := parseSeg(e.Name(), walPrefix); ok && n != s.seq {
			os.Remove(filepath.Join(s.opts.Dir, e.Name()))
		}
	}
	if s.m != nil {
		s.m.Compactions.Add(1)
	}
	s.log.Debug("WAL compacted into incremental snapshot", "seq", s.seq,
		"resolved", s.outBase, "incidents", s.incBase,
		"segments", len(s.outSegs)+len(s.incSegs), "manifest_bytes", len(payload))
	return nil
}

// syncDir fsyncs a directory so renames and creations are durable. Best
// effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// pendingSorted returns the open probe campaigns ascending by id. Called
// with the lock held.
func (s *Store) pendingSorted() []core.PendingConfirmation {
	if len(s.pending) == 0 {
		return nil
	}
	out := make([]core.PendingConfirmation, 0, len(s.pending))
	for _, p := range s.pending {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// History returns the fully materialized state: the complete persisted
// history after Open, and the live history once appends flow. Slices are
// copies. Sealed entries are decoded from their segments (bypassing the
// read cache), so this walks the whole history on disk — it exists for
// equivalence checks and offline tooling; a serving daemon uses Summary
// plus the paged ReadOutages/ReadIncidents instead.
func (s *Store) History() History {
	s.mu.Lock()
	outSegs, incSegs := s.outSegs, s.incSegs
	outBase, incBase := s.outBase, s.incBase
	outTail, incTail := s.outTail, s.incTail
	h := History{
		LastSeq:       s.seq,
		LastBin:       s.lastBin,
		PendingProbes: s.pendingSorted(),
		Traces:        append([]core.OutageTrace(nil), s.traces...),
		TraceBase:     s.traceBase,
		Tail:          s.tail.Events(),
	}
	s.mu.Unlock()
	var err error
	if h.Resolved, err = readEntries(s, outSegs, outBase, outTail, s.outCache, 0, outBase+len(outTail), false); err != nil {
		s.log.Error("history materialization failed", "err", err)
	}
	if h.Incidents, err = readEntries(s, incSegs, incBase, incTail, s.incCache, 0, incBase+len(incTail), false); err != nil {
		s.log.Error("history materialization failed", "err", err)
	}
	return h
}

// Summary is the bounded recovery state a serving daemon needs: everything
// History carries except the materialized entry slices, which are replaced
// by totals and read on demand via ReadOutages/ReadIncidents.
type Summary struct {
	LastSeq       uint64
	LastBin       time.Time
	ResolvedTotal int
	IncidentTotal int
	PendingProbes []core.PendingConfirmation
	Traces        []core.OutageTrace
	TraceBase     int
	Tail          []events.Event
}

// Summary returns the bounded view of the persisted state: O(pending +
// traces + tail) memory regardless of history size.
func (s *Store) Summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Summary{
		LastSeq:       s.seq,
		LastBin:       s.lastBin,
		ResolvedTotal: s.outBase + len(s.outTail),
		IncidentTotal: s.incBase + len(s.incTail),
		PendingProbes: s.pendingSorted(),
		Traces:        append([]core.OutageTrace(nil), s.traces...),
		TraceBase:     s.traceBase,
		Tail:          s.tail.Events(),
	}
}

// ReadOutages returns resolved outages with ordinals [start, start+count),
// clamped to the current total: unsealed entries straight from memory,
// sealed entries through the decoded-entry LRU with at most one positioned
// segment read per miss span. Safe from any goroutine.
func (s *Store) ReadOutages(start, count int) ([]core.Outage, error) {
	s.mu.Lock()
	segs, base, tail := s.outSegs, s.outBase, s.outTail
	s.mu.Unlock()
	return readEntries(s, segs, base, tail, s.outCache, start, count, true)
}

// ReadIncidents is ReadOutages for classified incidents.
func (s *Store) ReadIncidents(start, count int) ([]core.Incident, error) {
	s.mu.Lock()
	segs, base, tail := s.incSegs, s.incBase, s.incTail
	s.mu.Unlock()
	return readEntries(s, segs, base, tail, s.incCache, start, count, true)
}

// Flush forces buffered frames to the OS without fsync.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.m != nil {
		s.m.Flushes.Add(1)
	}
	return nil
}

// Close flushes, fsyncs and closes the WAL. Idempotent; the graceful
// shutdown path of the daemon.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.bw.Flush(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return s.f.Close()
}
