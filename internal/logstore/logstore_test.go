package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func smallCfg() Config {
	return Config{SegmentBytes: 1024, TotalBytes: 64 * 1024}
}

func obj(key string, valLen int, version uint64) Entry {
	return Entry{
		Type:     EntryObject,
		Table:    1,
		KeyHash:  uint64(len(key)) * 7,
		Key:      []byte(key),
		ValueLen: uint32(valLen),
		Version:  version,
	}
}

// appendOne rolls if needed and appends, like the master's write path.
func appendOne(t *testing.T, l *Log, e Entry) Ref {
	t.Helper()
	if l.NeedsRoll(e.StorageSize()) {
		l.Roll()
	}
	ref, err := l.Append(e)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return ref
}

func TestAppendAndGet(t *testing.T) {
	l := NewLog(smallCfg())
	e := obj("user1", 100, 1)
	e.Value = []byte("real bytes")
	e.ValueLen = uint32(len(e.Value))
	ref := appendOne(t, l, e)
	got, err := l.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Key) != "user1" || got.Version != 1 {
		t.Fatalf("got %+v", got)
	}
	if !got.VerifyChecksum() {
		t.Fatal("checksum mismatch after append")
	}
	if l.Appends() != 1 || l.LiveBytes() != int64(e.StorageSize()) {
		t.Fatalf("appends=%d live=%d", l.Appends(), l.LiveBytes())
	}
}

func TestStorageSizeCountsDeclaredLen(t *testing.T) {
	withBytes := Entry{Type: EntryObject, Key: []byte("k"), ValueLen: 100, Value: make([]byte, 100)}
	virtual := Entry{Type: EntryObject, Key: []byte("k"), ValueLen: 100}
	if withBytes.StorageSize() != virtual.StorageSize() {
		t.Fatal("virtual and real entries must account identically")
	}
}

func TestSegmentRollAtCapacity(t *testing.T) {
	l := NewLog(smallCfg()) // 1024-byte segments
	// Each entry ~ header(45) + key(2) + 300 = 347 bytes; 2 fit, 3rd rolls.
	var rolls int
	for i := 0; i < 6; i++ {
		e := obj(fmt.Sprintf("k%d", i), 300, 1)
		if l.NeedsRoll(e.StorageSize()) {
			l.Roll()
			rolls++
		}
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if rolls != 3 {
		t.Fatalf("rolls = %d, want 3", rolls)
	}
	if l.SegmentCount() != 3 {
		t.Fatalf("segments = %d, want 3", l.SegmentCount())
	}
	if l.Head().Sealed() {
		t.Fatal("head must not be sealed")
	}
}

func TestRollSealsPrevious(t *testing.T) {
	l := NewLog(smallCfg())
	sealed, head := l.Roll()
	if sealed != nil {
		t.Fatal("first roll must return nil sealed segment")
	}
	first := head
	sealed, head = l.Roll()
	if sealed != first || !sealed.Sealed() {
		t.Fatal("second roll must seal the first segment")
	}
	if head.ID() == first.ID() {
		t.Fatal("new head must have a fresh id")
	}
}

func TestAppendWithoutRollFails(t *testing.T) {
	l := NewLog(smallCfg())
	if _, err := l.Append(obj("k", 10, 1)); err == nil {
		t.Fatal("append into missing head must fail")
	}
}

func TestAppendEntryTooLarge(t *testing.T) {
	l := NewLog(smallCfg())
	l.Roll()
	if _, err := l.Append(obj("k", 5000, 1)); !errors.Is(err, ErrEntryLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestLogFull(t *testing.T) {
	l := NewLog(Config{SegmentBytes: 1024, TotalBytes: 2048})
	var err error
	for i := 0; i < 100; i++ {
		e := obj("key", 400, 1)
		if l.NeedsRoll(e.StorageSize()) {
			l.Roll()
		}
		if _, err = l.Append(e); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
}

func TestMarkDeadAccounting(t *testing.T) {
	l := NewLog(smallCfg())
	e := obj("k", 100, 1)
	ref := appendOne(t, l, e)
	size := int64(e.StorageSize())
	if l.LiveBytes() != size {
		t.Fatalf("live = %d", l.LiveBytes())
	}
	if err := l.MarkDead(ref); err != nil {
		t.Fatal(err)
	}
	if l.LiveBytes() != 0 {
		t.Fatalf("live = %d after MarkDead", l.LiveBytes())
	}
	if l.AccountedBytes() != size {
		t.Fatalf("accounted = %d, should not change", l.AccountedBytes())
	}
	seg, _ := l.Segment(ref.Segment)
	if seg.Live() != 0 || seg.Utilization() != 0 {
		t.Fatalf("segment live=%d util=%v", seg.Live(), seg.Utilization())
	}
}

func TestMarkDeadBadRef(t *testing.T) {
	l := NewLog(smallCfg())
	if err := l.MarkDead(Ref{Segment: 99, Index: 0}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("err = %v", err)
	}
	appendOne(t, l, obj("k", 10, 1))
	if err := l.MarkDead(Ref{Segment: 1, Index: 5}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetBadRef(t *testing.T) {
	l := NewLog(smallCfg())
	if _, err := l.Get(Ref{Segment: 1}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	e := obj("key", 0, 3)
	e.Value = []byte("hello")
	e.ValueLen = 5
	e.Seal()
	if !e.VerifyChecksum() {
		t.Fatal("fresh entry must verify")
	}
	e.Version = 4
	if e.VerifyChecksum() {
		t.Fatal("corrupted entry must not verify")
	}
}

// TestChecksumPinned fixes the CRC-32C of three entries, so a change to
// how the sum is computed cannot silently change what it covers.
func TestChecksumPinned(t *testing.T) {
	key := []byte("user0000000042")
	cases := []struct {
		name string
		e    Entry
		want uint32
	}{
		{"object with bytes", Entry{Type: EntryObject, Table: 7, KeyHash: 0x0123456789abcdef,
			Key: key, ValueLen: 5, Value: []byte("hello"), Version: 9}, 0x16737f64},
		{"virtual-value object", Entry{Type: EntryObject, Table: 7, KeyHash: 0x0123456789abcdef,
			Key: key, ValueLen: 1024, Version: 10}, 0x6bf2c4e0},
		{"tombstone", Entry{Type: EntryTombstone, Table: 7, KeyHash: 0x0123456789abcdef,
			Key: key, Version: 11, ObjectSegment: 3}, 0x9b787bb9},
	}
	for _, c := range cases {
		if got := c.e.ComputeChecksum(); got != c.want {
			t.Errorf("%s: checksum = %#08x, want %#08x", c.name, got, c.want)
		}
	}
}

// TestChecksumMatchesByteForm checks the word-wise header folding against
// a plain CRC-32C of the header laid out as bytes, then key, then value.
func TestChecksumMatchesByteForm(t *testing.T) {
	f := func(typ uint8, table, keyHash, version uint64, valueLen uint32, key, value []byte, virtual bool) bool {
		e := Entry{Type: EntryType(typ), Table: table, KeyHash: keyHash, Key: key,
			ValueLen: valueLen, Value: value, Version: version}
		if virtual {
			e.Value = nil
		}
		b := []byte{typ}
		b = binary.LittleEndian.AppendUint64(b, table)
		b = binary.LittleEndian.AppendUint64(b, keyHash)
		b = binary.LittleEndian.AppendUint64(b, version)
		b = binary.LittleEndian.AppendUint32(b, valueLen)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
		b = append(append(b, key...), e.Value...)
		return e.ComputeChecksum() == crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRefPackRoundTrip(t *testing.T) {
	f := func(seg uint64, idx uint32) bool {
		r := Ref{Segment: seg % (1 << 40), Index: int(idx % (1 << 24))}
		return UnpackRef(r.Packed()) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRefPackOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ref{Segment: 1 << 40, Index: 0}.Packed()
}

func TestMemoryUtilization(t *testing.T) {
	l := NewLog(Config{SegmentBytes: 1024, TotalBytes: 4096})
	e := obj("k", 400, 1)
	appendOne(t, l, e)
	got := l.MemoryUtilization()
	want := float64(e.StorageSize()) / 4096
	if got != want {
		t.Fatalf("util = %v, want %v", got, want)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLog(Config{SegmentBytes: 10, TotalBytes: 1})
}
