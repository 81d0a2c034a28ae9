package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// ckptPrefix names checkpoint segments: ckpt-%016x.ckpt, keyed by the
// durable event sequence at the engine barrier the checkpoint was taken at.
const ckptPrefix = "ckpt-"

// ckptTmpExt is appended to a segment's name while it is being written.
const ckptTmpExt = ".tmp"

// keepCheckpoints is how many checkpoint generations SaveCheckpoint
// retains: the newest plus one fallback, so a checkpoint torn by a crash
// mid-save (prevented by tmp+rename, but disks lie) or rejected by the
// engine still leaves a bounded-recovery path.
const keepCheckpoints = 2

// Checkpoint is one engine-state checkpoint as persisted beside the WAL.
// The store treats the engine payload as opaque bytes (core owns its
// versioned encoding); the envelope carries what the daemon needs to
// resume: the event-sequence position of the checkpoint barrier (the
// replay gate skips LastSeq-EventSeq callbacks instead of LastSeq) and the
// source cursor (record offset, plus the synthetic source's window
// coordinates) to seek ingestion to.
type Checkpoint struct {
	// EventSeq is the bus/store sequence of the newest event published at
	// or before the checkpoint barrier. Recovery requires EventSeq <= the
	// recovered history's LastSeq; a checkpoint ahead of the durable event
	// horizon (possible after a machine crash that lost WAL pages) is
	// rejected and recovery falls back.
	EventSeq uint64
	// Records is the source record offset ingestion resumes at.
	Records uint64
	// Window and WindowPos locate the record offset for window-rendering
	// sources (live.Synthetic); zero for plain archives.
	Window    int
	WindowPos int
	// BinEnd is the bin barrier the checkpoint was captured at.
	BinEnd time.Time
	// Engine is the core.Checkpoint encoding. A loaded checkpoint's Engine
	// aliases the segment's read buffer.
	Engine []byte
}

// A checkpoint segment is one CRC32C frame whose payload is a fixed
// big-endian header followed by the engine bytes, so saving and loading
// touch the payload only to checksum it:
//
//	0  "KCE1"     envelope magic (a build older than engine checkpoint
//	              version 3 wrote a JSON object here and is refused)
//	4  event_seq  uint64
//	12 records    uint64
//	20 window     int64
//	28 window_pos int64
//	36 bin_end    int64 unix seconds, then uint32 nanoseconds (UTC)
//	48 engine bytes
const (
	ckptMagic      = "KCE1"
	ckptHeaderSize = 48
)

// checkpointHead renders everything of c's segment that precedes the engine
// bytes: the frame header (payload length, CRC32C over envelope and engine
// bytes) and the envelope.
func checkpointHead(c *Checkpoint) []byte {
	b := make([]byte, frameHeaderSize, frameHeaderSize+ckptHeaderSize)
	b = append(b, ckptMagic...)
	b = binary.BigEndian.AppendUint64(b, c.EventSeq)
	b = binary.BigEndian.AppendUint64(b, c.Records)
	b = binary.BigEndian.AppendUint64(b, uint64(int64(c.Window)))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(c.WindowPos)))
	b = binary.BigEndian.AppendUint64(b, uint64(c.BinEnd.Unix()))
	b = binary.BigEndian.AppendUint32(b, uint32(c.BinEnd.Nanosecond()))
	sum := crc32.Update(crc32.Checksum(b[frameHeaderSize:], crcTable), crcTable, c.Engine)
	binary.BigEndian.PutUint32(b[0:4], uint32(ckptHeaderSize+len(c.Engine)))
	binary.BigEndian.PutUint32(b[4:8], sum)
	return b
}

// decodeCheckpointSeg validates one checkpoint segment's bytes — exactly
// one frame with a matching checksum, holding a well-formed envelope — and
// returns the checkpoint with Engine aliasing b.
func decodeCheckpointSeg(b []byte) (*Checkpoint, error) {
	payload, n, err := readFrame(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("%d bytes after the frame", len(b)-n)
	}
	if len(payload) < ckptHeaderSize || string(payload[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("no %q envelope (written by a build older than engine checkpoint version 3?)", ckptMagic)
	}
	nsec := binary.BigEndian.Uint32(payload[44:48])
	if nsec >= uint32(time.Second) {
		return nil, fmt.Errorf("envelope nanoseconds %d out of range", nsec)
	}
	return &Checkpoint{
		EventSeq:  binary.BigEndian.Uint64(payload[4:12]),
		Records:   binary.BigEndian.Uint64(payload[12:20]),
		Window:    int(int64(binary.BigEndian.Uint64(payload[20:28]))),
		WindowPos: int(int64(binary.BigEndian.Uint64(payload[28:36]))),
		BinEnd:    time.Unix(int64(binary.BigEndian.Uint64(payload[36:44])), int64(nsec)).UTC(),
		Engine:    payload[ckptHeaderSize:],
	}, nil
}

// SaveCheckpoint durably writes a checkpoint segment (CRC32C-framed,
// fsynced, atomically renamed into place) and prunes all but the newest
// keepCheckpoints generations. Called from the ingestion goroutine at bin
// barriers, after the corresponding events have been appended. The segment
// depends on no WAL state (a checkpoint ahead of the durable horizon is
// rejected at load), so the store lock is held only to read closed and
// readers are never stalled behind the fsync.
func (s *Store) SaveCheckpoint(c *Checkpoint) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("store: checkpoint after Close")
	}
	if len(c.Engine) > maxFrameSize-ckptHeaderSize {
		return fmt.Errorf("store: checkpoint of %d bytes exceeds the %d-byte frame limit", len(c.Engine), maxFrameSize)
	}
	head := checkpointHead(c)
	path := filepath.Join(s.opts.Dir, segName(ckptPrefix, c.EventSeq))
	tmp := path + ckptTmpExt
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err = f.Write(head); err == nil {
		_, err = f.Write(c.Engine)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	syncDir(s.opts.Dir)

	// Rotate: drop every generation below the newest keepCheckpoints.
	// Removal failures are harmless (retried at the next save).
	seqs := s.checkpointSeqs()
	for i, seq := range seqs {
		if i >= keepCheckpoints {
			os.Remove(filepath.Join(s.opts.Dir, segName(ckptPrefix, seq)))
		}
	}
	if s.m != nil {
		s.m.CheckpointSaves.Add(1)
		s.m.CheckpointBytes.Add(int64(len(head) + len(c.Engine)))
	}
	return nil
}

// sweepCheckpointTmp removes checkpoint temp files a crash mid-save left
// behind: they were never renamed into place, so nothing refers to them.
func sweepCheckpointTmp(dir string, entries []os.DirEntry) {
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptTmpExt) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// checkpointSeqs lists the on-disk checkpoint base sequences, newest first.
func (s *Store) checkpointSeqs() []uint64 {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		if n, ok := parseSeg(e.Name(), ckptPrefix); ok {
			seqs = append(seqs, n)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs
}

// LoadCheckpoint returns the newest usable checkpoint: segments are tried
// newest first, each validated structurally (frame checksum, envelope
// decode) and then by accept — the caller's semantic gate (engine payload
// version, event horizon, prober availability). A segment failing either
// check is counted as discarded and the next older one is tried; exhausting
// them returns nil, which recovery treats as "re-ingest from record zero".
// The accept callback may be nil.
func (s *Store) LoadCheckpoint(accept func(*Checkpoint) error) *Checkpoint {
	for _, seq := range s.checkpointSeqs() {
		name := segName(ckptPrefix, seq)
		c, err := s.loadCheckpointSeg(name)
		if err == nil && accept != nil {
			err = accept(c)
		}
		if err != nil {
			s.log.Warn("checkpoint segment discarded", "segment", name, "error", err)
			if s.m != nil {
				s.m.CheckpointsDiscarded.Add(1)
			}
			continue
		}
		return c
	}
	return nil
}

// loadCheckpointSeg reads and structurally validates one checkpoint segment.
func (s *Store) loadCheckpointSeg(name string) (*Checkpoint, error) {
	b, err := os.ReadFile(filepath.Join(s.opts.Dir, name))
	if err != nil {
		return nil, err
	}
	c, err := decodeCheckpointSeg(b)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	return c, nil
}
