package logstore

import (
	"errors"
	"fmt"
	"testing"
)

// chunkLog returns a log whose one segment holds more than three chunks
// of the entries keyed by chunkKey.
func chunkLog(t *testing.T) *Log {
	t.Helper()
	e := obj(chunkKey(0), 8, 1)
	size := e.StorageSize()
	l := NewLog(Config{SegmentBytes: 4 * chunkEntries * size, TotalBytes: 1 << 24})
	l.Roll()
	return l
}

// chunkKey names the i-th entry appended by the chunk tests; every key has
// the same length, so every entry has the same storage size.
func chunkKey(i int) string { return fmt.Sprintf("chunk%06d", i) }

func TestChunkBoundaries(t *testing.T) {
	l := chunkLog(t)
	var refs []Ref
	for i := 0; i <= chunkEntries+1; i++ {
		ref, err := l.Append(obj(chunkKey(i), 8, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Index != i {
			t.Fatalf("append %d got index %d", i, ref.Index)
		}
		refs = append(refs, ref)
	}
	seg := l.Head()
	if seg.Entries() != chunkEntries+2 {
		t.Fatalf("Entries = %d, want %d", seg.Entries(), chunkEntries+2)
	}
	e := obj(chunkKey(0), 8, 1)
	size := int64(e.StorageSize())
	live := l.LiveBytes()
	for _, i := range []int{chunkEntries - 1, chunkEntries, chunkEntries + 1} {
		got, err := l.Get(refs[i])
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		at, err := seg.EntryAt(i)
		if err != nil {
			t.Fatalf("EntryAt(%d): %v", i, err)
		}
		if got != at {
			t.Fatalf("Get and EntryAt disagree at %d", i)
		}
		if string(got.Key) != chunkKey(i) || got.Version != uint64(i+1) || !got.VerifyChecksum() {
			t.Fatalf("entry %d = %s v%d", i, got.Key, got.Version)
		}
		if err := l.MarkDead(refs[i]); err != nil {
			t.Fatalf("MarkDead(%d): %v", i, err)
		}
		live -= size
		if l.LiveBytes() != live {
			t.Fatalf("after MarkDead(%d) live = %d, want %d", i, l.LiveBytes(), live)
		}
	}
	// One past the last entry is out of range, even though its chunk exists.
	if _, err := seg.EntryAt(chunkEntries + 2); !errors.Is(err, ErrBadRef) {
		t.Fatalf("EntryAt past the end: err = %v, want ErrBadRef", err)
	}
	if err := l.MarkDead(Ref{Segment: seg.ID(), Index: chunkEntries + 2}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("MarkDead past the end: err = %v, want ErrBadRef", err)
	}
}

// TestEntryPointerStable pins the chunked entry index: appending never
// moves an entry already appended, and costs at most one allocation per
// chunk of entries.
func TestEntryPointerStable(t *testing.T) {
	l := chunkLog(t)
	if _, err := l.Append(obj(chunkKey(0), 8, 1)); err != nil {
		t.Fatal(err)
	}
	first, err := l.Head().EntryAt(0)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls appendChunk three times: a warm-up and two
	// measured runs. The entries are built beforehand so their keys are not
	// counted.
	pending := make([]Entry, 3*chunkEntries)
	for i := range pending {
		pending[i] = obj(chunkKey(i+1), 8, 1)
	}
	appendChunk := func() {
		for _, e := range pending[:chunkEntries] {
			if _, err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		pending = pending[chunkEntries:]
	}
	if allocs := testing.AllocsPerRun(2, appendChunk); allocs > 1 {
		t.Fatalf("%v allocations per %d appends, want at most one (the chunk)", allocs, chunkEntries)
	}
	if again, _ := l.Head().EntryAt(0); again != first {
		t.Fatal("entry 0 moved while the segment grew")
	}
	if string(first.Key) != chunkKey(0) || !first.VerifyChecksum() {
		t.Fatalf("entry 0 corrupted: %s", first.Key)
	}
}
