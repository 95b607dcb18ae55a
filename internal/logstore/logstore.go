// Package logstore implements RAMCloud's log-structured memory: an
// append-only log divided into fixed-size segments (8 MB by default), with
// tombstones for deletes, per-segment liveness accounting, and a
// cost-benefit cleaner that reclaims space by relocating live entries.
//
// The log is a pure data structure: it knows nothing about threads,
// networks or time. The master wraps it with the simulation's concurrency
// control (the log-head mutex) and replication.
//
// Values may be virtual (declared length without bytes) so that
// paper-scale experiments fit in host memory; all capacity accounting uses
// declared sizes, so segment rollover, cleaning and backup flush behave
// exactly as if the bytes were real.
package logstore

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// EntryType discriminates log records.
type EntryType uint8

// Log record types. Start at one so a zero value is detectably invalid.
const (
	EntryObject EntryType = iota + 1
	EntryTombstone
)

// Entry is one log record.
type Entry struct {
	Type     EntryType
	Table    uint64
	KeyHash  uint64
	Key      []byte
	ValueLen uint32
	Value    []byte // nil when virtual; len(Value) == ValueLen when real
	Version  uint64

	// ObjectSegment is, for tombstones, the segment that held the deleted
	// object. The tombstone may be dropped once that segment is freed.
	ObjectSegment uint64

	Checksum uint32
}

// entryHeaderBytes is the accounted per-entry overhead: type, table, key
// hash, key length, value length, version, object segment, checksum.
const entryHeaderBytes = 1 + 8 + 8 + 4 + 4 + 8 + 8 + 4

// StorageSize returns the bytes this entry occupies in the log, counting
// the declared value length.
func (e *Entry) StorageSize() int {
	return entryHeaderBytes + len(e.Key) + int(e.ValueLen)
}

// ComputeChecksum returns the CRC-32C over the entry's logical content:
// the 33-byte little-endian header (type, table, key hash, version, value
// length, key length), then the key, then the value bytes. Virtual values
// contribute their declared length (the simulation cannot hash bytes it
// does not materialize, but a length change still alters the sum).
//
// The header is folded in a word at a time from the fields themselves.
// Staging it in a byte array for crc32.Update would cost an allocation per
// checksum: crc32 reaches its hardware path through a function value, so
// escape analysis moves any buffer passed to it to the heap.
func (e *Entry) ComputeChecksum() uint32 {
	crc := ^uint32(0)
	crc = castagnoli[byte(crc)^byte(e.Type)] ^ crc>>8
	crc = crcWord(crc, e.Table)
	crc = crcWord(crc, e.KeyHash)
	crc = crcWord(crc, e.Version)
	crc = crcWord(crc, uint64(e.ValueLen)|uint64(len(e.Key))<<32)
	crc = crc32.Update(^crc, castagnoli, e.Key)
	return crc32.Update(crc, castagnoli, e.Value)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slicing8[k][b] is the CRC-32C register contribution of byte b followed
// by k zero bytes, the tables of the slicing-by-8 method.
var slicing8 = func() (t [8][256]uint32) {
	t[0] = *castagnoli
	for i := range 256 {
		c := t[0][i]
		for k := 1; k < 8; k++ {
			c = t[0][byte(c)] ^ c>>8
			t[k][i] = c
		}
	}
	return t
}()

// crcWord folds the eight little-endian bytes of w into crc, a CRC-32C
// register in its inverted (in-progress) form.
func crcWord(crc uint32, w uint64) uint32 {
	t := &slicing8
	crc ^= uint32(w)
	return t[7][byte(crc)] ^ t[6][byte(crc>>8)] ^ t[5][byte(crc>>16)] ^ t[4][crc>>24] ^
		t[3][byte(w>>32)] ^ t[2][byte(w>>40)] ^ t[1][byte(w>>48)] ^ t[0][byte(w>>56)]
}

// Seal protects the entry with its checksum.
func (e *Entry) Seal() { e.Checksum = e.ComputeChecksum() }

// VerifyChecksum reports whether the entry matches its checksum.
func (e *Entry) VerifyChecksum() bool { return e.Checksum == e.ComputeChecksum() }

// Ref locates an entry in the log.
type Ref struct {
	Segment uint64
	Index   int
}

// Packed encodes the ref as a uint64 for storage in the hash table
// (40 bits of segment id, 24 bits of index).
func (r Ref) Packed() uint64 {
	if r.Segment >= 1<<40 || r.Index >= 1<<24 || r.Index < 0 {
		panic(fmt.Sprintf("logstore: ref out of packing range: %+v", r))
	}
	return r.Segment<<24 | uint64(r.Index)
}

// UnpackRef inverts Ref.Packed.
func UnpackRef(v uint64) Ref {
	return Ref{Segment: v >> 24, Index: int(v & (1<<24 - 1))}
}

// Segment is one fixed-size piece of the log.
type Segment struct {
	id        uint64
	entries   []Entry
	accounted int // bytes appended (declared sizes)
	live      int // bytes still live
	sealed    bool
	seq       uint64 // creation sequence, proxy for age in cost-benefit
}

// ID returns the segment's log-unique id.
func (s *Segment) ID() uint64 { return s.id }

// Entries returns the number of records in the segment.
func (s *Segment) Entries() int { return len(s.entries) }

// Accounted returns the bytes appended to this segment.
func (s *Segment) Accounted() int { return s.accounted }

// Live returns the bytes of entries still live.
func (s *Segment) Live() int { return s.live }

// Sealed reports whether the segment is closed to appends.
func (s *Segment) Sealed() bool { return s.sealed }

// Utilization returns live/accounted in [0,1]; 1 for an empty segment.
func (s *Segment) Utilization() float64 {
	if s.accounted == 0 {
		return 1
	}
	return float64(s.live) / float64(s.accounted)
}

// EntryAt returns the i-th entry.
func (s *Segment) EntryAt(i int) (*Entry, error) {
	if i < 0 || i >= len(s.entries) {
		return nil, fmt.Errorf("%w: index %d of %d in segment %d", ErrBadRef, i, len(s.entries), s.id)
	}
	return &s.entries[i], nil
}

// Config sets the log geometry.
type Config struct {
	SegmentBytes int   // capacity of one segment (paper default: 8 MB)
	TotalBytes   int64 // total log capacity (paper: 10 GB per server)
}

// DefaultConfig mirrors the paper's server configuration.
func DefaultConfig() Config {
	return Config{SegmentBytes: 8 << 20, TotalBytes: 10 << 30}
}

// Log errors.
var (
	ErrBadRef     = errors.New("logstore: invalid reference")
	ErrLogFull    = errors.New("logstore: log capacity exhausted")
	ErrEntryLarge = errors.New("logstore: entry larger than a segment")
	ErrSealed     = errors.New("logstore: segment is sealed")
)

// Log is the append-only log-structured memory of one master.
type Log struct {
	cfg Config

	head     *Segment
	segments map[uint64]*Segment

	nextSegID uint64
	nextSeq   uint64

	totalAccounted int64
	totalLive      int64

	appends   uint64
	tombCount int
}

// NewLog returns an empty log. The first Append opens the first segment.
func NewLog(cfg Config) *Log {
	if cfg.SegmentBytes <= entryHeaderBytes {
		panic("logstore: segment size too small")
	}
	if cfg.TotalBytes < int64(cfg.SegmentBytes) {
		panic("logstore: total capacity below one segment")
	}
	return &Log{cfg: cfg, segments: make(map[uint64]*Segment)}
}

// Config returns the log geometry.
func (l *Log) Config() Config { return l.cfg }

// Head returns the current head segment (nil before the first append).
func (l *Log) Head() *Segment { return l.head }

// SegmentCount returns the number of segments (head included).
func (l *Log) SegmentCount() int { return len(l.segments) }

// Segment returns a segment by id.
func (l *Log) Segment(id uint64) (*Segment, bool) {
	s, ok := l.segments[id]
	return s, ok
}

// Appends returns the number of entries ever appended.
func (l *Log) Appends() uint64 { return l.appends }

// LiveBytes returns the total live bytes.
func (l *Log) LiveBytes() int64 { return l.totalLive }

// AccountedBytes returns the total appended bytes across all segments.
func (l *Log) AccountedBytes() int64 { return l.totalAccounted }

// MemoryUtilization returns accounted bytes / total capacity, the trigger
// metric for cleaning.
func (l *Log) MemoryUtilization() float64 {
	return float64(l.totalAccounted) / float64(l.cfg.TotalBytes)
}

// NeedsRoll reports whether appending size more bytes requires opening a
// new head segment.
func (l *Log) NeedsRoll(size int) bool {
	return l.head == nil || l.head.accounted+size > l.cfg.SegmentBytes
}

// Roll seals the current head and opens a new one. It returns the sealed
// segment (nil on the very first roll) and the new head. The master uses
// the sealed segment to close backup replicas and the new head to open
// fresh ones.
func (l *Log) Roll() (sealed, head *Segment) {
	sealed = l.head
	if sealed != nil {
		sealed.sealed = true
	}
	l.nextSegID++
	l.nextSeq++
	head = &Segment{id: l.nextSegID, seq: l.nextSeq}
	l.segments[head.id] = head
	l.head = head
	return sealed, head
}

// Append adds an entry to the head segment and returns its ref. The caller
// must have arranged capacity via NeedsRoll/Roll; appending an entry that
// does not fit the head is an error. Entries larger than a segment or
// beyond total capacity are errors.
func (l *Log) Append(e Entry) (Ref, error) {
	size := e.StorageSize()
	if size > l.cfg.SegmentBytes {
		return Ref{}, fmt.Errorf("%w: %d bytes", ErrEntryLarge, size)
	}
	if l.totalAccounted+int64(size) > l.cfg.TotalBytes {
		return Ref{}, ErrLogFull
	}
	if l.head == nil || l.head.accounted+size > l.cfg.SegmentBytes {
		return Ref{}, fmt.Errorf("logstore: append without roll (head full or missing)")
	}
	if e.Type == 0 {
		return Ref{}, errors.New("logstore: entry type unset")
	}
	e.Seal()
	s := l.head
	s.entries = append(s.entries, e)
	s.accounted += size
	s.live += size
	l.totalAccounted += int64(size)
	l.totalLive += int64(size)
	l.appends++
	if e.Type == EntryTombstone {
		l.tombCount++
	}
	return Ref{Segment: s.id, Index: len(s.entries) - 1}, nil
}

// Get returns the entry at ref.
func (l *Log) Get(ref Ref) (*Entry, error) {
	s, ok := l.segments[ref.Segment]
	if !ok {
		return nil, fmt.Errorf("%w: segment %d missing", ErrBadRef, ref.Segment)
	}
	return s.EntryAt(ref.Index)
}

// MarkDead reduces liveness for the entry at ref (overwritten or deleted).
func (l *Log) MarkDead(ref Ref) error {
	s, ok := l.segments[ref.Segment]
	if !ok {
		return fmt.Errorf("%w: segment %d missing", ErrBadRef, ref.Segment)
	}
	e, err := s.EntryAt(ref.Index)
	if err != nil {
		return err
	}
	size := e.StorageSize()
	s.live -= size
	l.totalLive -= int64(size)
	if s.live < 0 {
		return fmt.Errorf("logstore: segment %d liveness below zero", s.id)
	}
	return nil
}

// free removes a segment entirely, reclaiming its accounted bytes.
func (l *Log) free(s *Segment) {
	l.totalAccounted -= int64(s.accounted)
	l.totalLive -= int64(s.live)
	delete(l.segments, s.id)
}
