// Package bgpstream is Kepler's record-level ingest front end (Section 4.1
// of the paper, the role BGPStream plays there). Fanout turns a
// time-ordered MRT record stream into per-path route ops: announcements and
// withdrawals land on the shard ShardOf assigns their (peer, prefix) key,
// and a collector session leaving Established state is broadcast to every
// shard as a peer-down op, so each drops that peer's routes (Section 4.2).
// FeedWatchdog declares feeds degraded when they fall silent on stream
// time. SliceSource replays an in-memory record slice.
package bgpstream

import (
	"io"

	"kepler/internal/mrt"
)

// Source yields records in non-decreasing time order. mrt.Reader satisfies
// this interface, as does SliceSource.
type Source interface {
	Next() (*mrt.Record, error)
}

// SliceSource replays an in-memory record slice. The slice must already be
// time-sorted, as archives are.
type SliceSource struct {
	records []*mrt.Record
	pos     int
}

// NewSliceSource wraps records (not copied) as a Source.
func NewSliceSource(records []*mrt.Record) *SliceSource {
	return &SliceSource{records: records}
}

// Next implements Source.
func (s *SliceSource) Next() (*mrt.Record, error) {
	if s.pos >= len(s.records) {
		return nil, io.EOF
	}
	r := s.records[s.pos]
	s.pos++
	return r, nil
}
