// Package mrt implements a binary archive format for routing data, modelled
// on the MRT export format (RFC 6396) that RouteViews and RIPE RIS publish
// and that BGPStream consumes. Archives hold three record kinds: RIB
// snapshot entries (TABLE_DUMP-style), BGP UPDATE messages (BGP4MP-style,
// embedding the full RFC 4271 wire encoding from package bgp) and BGP
// session state changes. Records carry microsecond timestamps, the collector
// name, and peer identity, which is everything Kepler's stream layer needs
// to merge and order multi-collector feeds.
//
// Layout:
//
//	file   := magic version record*
//	magic  := "MRTL" (4 bytes)                 version := uint16 (=1)
//	record := tsMicro(uint64) kind(uint8) peerAS(uint32)
//	          peerAddr(1+16 bytes: family tag + address)
//	          collector(uint8 len + bytes)
//	          bodyLen(uint32) body
//
// Update and RIB bodies are full BGP UPDATE messages; State bodies are two
// uint8 FSM states. All integers are big-endian.
//
// Ownership: every Reader.Next returns a fresh *Record that the caller owns
// and may keep, share or hand to another goroutine. Nothing in a record
// aliases the reader's buffers (Next reuses one body buffer, and decoding
// copies every field out of it), so records stay valid however far the
// reader goes on. A RIB or UPDATE record is allocated together with its
// bgp.Update and room for one announced prefix, so keeping any part of the
// update keeps that one block alive. Collector names are interned per
// reader: records of one collector share the string.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"kepler/internal/bgp"
)

// RecordKind distinguishes the archive record types.
type RecordKind uint8

// Record kinds.
const (
	KindInvalid RecordKind = iota
	KindRIB                // a snapshot entry: one prefix + attributes from one peer
	KindUpdate             // a live UPDATE message
	KindState              // a BGP FSM transition on a collector session
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case KindRIB:
		return "RIB"
	case KindUpdate:
		return "UPDATE"
	case KindState:
		return "STATE"
	default:
		return "INVALID"
	}
}

// SessionState is a BGP finite-state-machine state (RFC 4271 §8.2.2).
type SessionState uint8

// FSM states.
const (
	StateIdle        SessionState = 1
	StateConnect     SessionState = 2
	StateActive      SessionState = 3
	StateOpenSent    SessionState = 4
	StateOpenConfirm SessionState = 5
	StateEstablished SessionState = 6
)

// String names the FSM state.
func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateActive:
		return "Active"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Record is one archive entry.
type Record struct {
	Time      time.Time
	Kind      RecordKind
	Collector string
	PeerAS    bgp.ASN
	PeerAddr  netip.Addr

	// Update holds the decoded message for KindRIB and KindUpdate.
	Update *bgp.Update

	// OldState and NewState are set for KindState.
	OldState SessionState
	NewState SessionState
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	out := *r
	if r.Update != nil {
		u := *r.Update
		u.Announced = append([]netip.Prefix(nil), r.Update.Announced...)
		u.Withdrawn = append([]netip.Prefix(nil), r.Update.Withdrawn...)
		u.Attrs = r.Update.Attrs.Clone()
		out.Update = &u
	}
	return &out
}

var (
	magic = [4]byte{'M', 'R', 'T', 'L'}

	// ErrBadMagic indicates the stream is not an MRT-lite archive.
	ErrBadMagic = errors.New("mrt: bad magic")
	// ErrBadVersion indicates an unsupported archive version.
	ErrBadVersion = errors.New("mrt: unsupported version")
	// ErrCorrupt indicates a structurally invalid record.
	ErrCorrupt = errors.New("mrt: corrupt record")
)

const version = 1

// maxBodyLen bounds a single record body; anything larger is corruption.
const maxBodyLen = 1 << 20

// Writer serializes records to an archive stream. Writers buffer
// internally; call Flush (or Close on the underlying sink) when done.
type Writer struct {
	w       *bufio.Writer
	started bool
	scratch []byte
}

// NewWriter creates an archive writer on w. The file header is emitted
// lazily on the first WriteRecord.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// WriteRecord appends one record.
func (w *Writer) WriteRecord(r *Record) error {
	if !w.started {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		var v [2]byte
		binary.BigEndian.PutUint16(v[:], version)
		if _, err := w.w.Write(v[:]); err != nil {
			return err
		}
		w.started = true
	}

	var body []byte
	switch r.Kind {
	case KindRIB, KindUpdate:
		if r.Update == nil {
			return fmt.Errorf("mrt: %s record without update payload", r.Kind)
		}
		b, err := bgp.MarshalUpdate(r.Update)
		if err != nil {
			return fmt.Errorf("mrt: encoding update: %w", err)
		}
		body = b
	case KindState:
		body = []byte{byte(r.OldState), byte(r.NewState)}
	default:
		return fmt.Errorf("mrt: cannot write record of kind %d", r.Kind)
	}
	if len(r.Collector) > 255 {
		return fmt.Errorf("mrt: collector name too long: %d bytes", len(r.Collector))
	}

	h := w.scratch[:0]
	h = binary.BigEndian.AppendUint64(h, uint64(r.Time.UnixMicro()))
	h = append(h, byte(r.Kind))
	h = binary.BigEndian.AppendUint32(h, uint32(r.PeerAS))
	h = appendAddr(h, r.PeerAddr)
	h = append(h, byte(len(r.Collector)))
	h = append(h, r.Collector...)
	h = binary.BigEndian.AppendUint32(h, uint32(len(body)))
	w.scratch = h
	if _, err := w.w.Write(h); err != nil {
		return err
	}
	_, err := w.w.Write(body)
	return err
}

// Flush pushes buffered bytes to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.Is4() {
		dst = append(dst, 4)
		b := a.As4()
		var full [16]byte
		copy(full[:], b[:])
		return append(dst, full[:]...)
	}
	if a.IsValid() {
		dst = append(dst, 6)
		b := a.As16()
		return append(dst, b[:]...)
	}
	dst = append(dst, 0)
	var zero [16]byte
	return append(dst, zero[:]...)
}

func decodeAddr(fam byte, b []byte) (netip.Addr, error) {
	switch fam {
	case 0:
		return netip.Addr{}, nil
	case 4:
		return netip.AddrFrom4([4]byte(b[:4])), nil
	case 6:
		return netip.AddrFrom16([16]byte(b[:16])), nil
	default:
		return netip.Addr{}, fmt.Errorf("%w: address family %d", ErrCorrupt, fam)
	}
}

// Reader decodes an archive stream sequentially.
type Reader struct {
	r      *bufio.Reader
	header bool

	// Per-record scratch, reused by every Next: the fixed-size header, the
	// collector name, the body length and the body. Decoding copies what a
	// record keeps out of them.
	fixed [8 + 1 + 4 + 17]byte
	name  [255]byte
	blen  [4]byte
	body  []byte

	// names interns collector names (an archive has a handful).
	names map[string]string
}

// maxInterned bounds the intern table against archives that name a new
// collector in every record; names past it are allocated per record.
const maxInterned = 256

// minBodyCap is the body buffer's first size: any BGP message fits.
const minBodyCap = 4096

// recordBlock is how Next allocates a RIB or UPDATE record: one object for
// the record, its update and the one announced prefix nearly every such
// record carries.
type recordBlock struct {
	rec Record
	upd bgp.Update
	ann [1]netip.Prefix
}

// NewReader creates an archive reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10), names: make(map[string]string)}
}

// Next returns the next record, or io.EOF at clean end of stream. The
// record is the caller's: see the package documentation.
func (r *Reader) Next() (*Record, error) {
	if !r.header {
		var hdr [6]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("mrt: reading header: %w", err)
		}
		if [4]byte(hdr[:4]) != magic {
			return nil, ErrBadMagic
		}
		if binary.BigEndian.Uint16(hdr[4:]) != version {
			return nil, ErrBadVersion
		}
		r.header = true
	}

	fixed := r.fixed[:]
	if _, err := io.ReadFull(r.r, fixed); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated record header", ErrCorrupt)
	}
	at := time.UnixMicro(int64(binary.BigEndian.Uint64(fixed[:8]))).UTC()
	kind := RecordKind(fixed[8])
	peerAS := bgp.ASN(binary.BigEndian.Uint32(fixed[9:13]))
	addr, err := decodeAddr(fixed[13], fixed[14:30])
	if err != nil {
		return nil, err
	}

	nameLen, err := r.r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated collector name", ErrCorrupt)
	}
	name := r.name[:nameLen]
	if _, err := io.ReadFull(r.r, name); err != nil {
		return nil, fmt.Errorf("%w: truncated collector name", ErrCorrupt)
	}
	collector := r.intern(name)

	if _, err := io.ReadFull(r.r, r.blen[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated body length", ErrCorrupt)
	}
	bodyLen := binary.BigEndian.Uint32(r.blen[:])
	if bodyLen > maxBodyLen {
		return nil, fmt.Errorf("%w: body length %d", ErrCorrupt, bodyLen)
	}
	if uint32(cap(r.body)) < bodyLen {
		r.body = make([]byte, max(bodyLen, minBodyCap))
	}
	body := r.body[:bodyLen]
	if _, err := io.ReadFull(r.r, body); err != nil {
		return nil, fmt.Errorf("%w: truncated body", ErrCorrupt)
	}

	var rec *Record
	switch kind {
	case KindRIB, KindUpdate:
		blk := &recordBlock{}
		blk.upd.Announced = blk.ann[:0]
		if _, err := bgp.UnmarshalUpdateInto(&blk.upd, body); err != nil {
			return nil, fmt.Errorf("%w: embedded update: %v", ErrCorrupt, err)
		}
		rec = &blk.rec
		rec.Update = &blk.upd
	case KindState:
		if len(body) != 2 {
			return nil, fmt.Errorf("%w: state body length %d", ErrCorrupt, len(body))
		}
		rec = &Record{OldState: SessionState(body[0]), NewState: SessionState(body[1])}
	default:
		return nil, fmt.Errorf("%w: record kind %d", ErrCorrupt, kind)
	}
	rec.Time, rec.Kind, rec.Collector, rec.PeerAS, rec.PeerAddr = at, kind, collector, peerAS, addr
	return rec, nil
}

// intern returns the collector name b as a string, shared with every
// earlier record that named the same collector.
func (r *Reader) intern(b []byte) string {
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(r.names) < maxInterned {
		r.names[s] = s
	}
	return s
}

// ReadAll drains the reader into a slice.
func ReadAll(r io.Reader) ([]*Record, error) {
	rd := NewReader(r)
	var out []*Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// WriteAll writes all records and flushes.
func WriteAll(w io.Writer, records []*Record) error {
	wr := NewWriter(w)
	for _, r := range records {
		if err := wr.WriteRecord(r); err != nil {
			return err
		}
	}
	return wr.Flush()
}
