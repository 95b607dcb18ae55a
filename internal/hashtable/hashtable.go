// Package hashtable implements the master's object index, mapping 64-bit
// key hashes to packed log references, in the style of RAMCloud's
// cache-line-bucket hash table: each bucket holds eight (hash, ref) slots
// plus an overflow chain, and the directory doubles when the table gets
// dense.
//
// The table stores full 64-bit hashes but does not store keys: distinct
// keys can share a hash, so lookups take an equality callback that checks
// the candidate's key in the log, exactly as RAMCloud does.
//
// Occupancy is a single uint8 bitmask per bucket (bit i = slot i used)
// rather than a [8]bool array, so a bucket stays compact and a full or
// empty bucket is detected with one compare instead of eight loads.
// Lookup performs no allocation.
package hashtable

import "math/bits"

const slotsPerBucket = 8

// fullMask has one bit set per slot.
const fullMask = uint8(1<<slotsPerBucket - 1)

// maxLoad is entries per directory slot beyond which the table doubles
// (6 of 8 slots used on average).
const maxLoad = 6

type bucket struct {
	hashes   [slotsPerBucket]uint64
	refs     [slotsPerBucket]uint64
	used     uint8 // occupancy bitmask; bit i covers slot i
	overflow *bucket
}

// EqualFunc reports whether the entry referenced by ref is the key the
// caller is looking for.
type EqualFunc func(ref uint64) bool

// Table is the hash table. Construct with New.
type Table struct {
	buckets []bucket
	mask    uint64
	n       int

	overflowBuckets int
}

// New returns a table with an initial directory sized for at least
// sizeHint entries (minimum 16 buckets).
func New(sizeHint int) *Table {
	nb := 16
	for nb*maxLoad < sizeHint {
		nb *= 2
	}
	return &Table{buckets: make([]bucket, nb), mask: uint64(nb - 1)}
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// OverflowBuckets returns the number of chained buckets (a health metric).
func (t *Table) OverflowBuckets() int { return t.overflowBuckets }

// DirectorySize returns the number of top-level buckets.
func (t *Table) DirectorySize() int { return len(t.buckets) }

// Lookup finds an entry with the given hash whose referent satisfies eq.
// A nil eq matches any entry with the hash.
func (t *Table) Lookup(hash uint64, eq EqualFunc) (uint64, bool) {
	b := &t.buckets[hash&t.mask]
	for b != nil {
		for m := b.used; m != 0; m &= m - 1 {
			i := bits.TrailingZeros8(m)
			if b.hashes[i] == hash && (eq == nil || eq(b.refs[i])) {
				return b.refs[i], true
			}
		}
		b = b.overflow
	}
	return 0, false
}

// Insert adds a new entry. It does not check for duplicates; use Upsert
// to write a key that may already be present.
func (t *Table) Insert(hash uint64, ref uint64) {
	if t.n >= len(t.buckets)*maxLoad {
		t.grow()
	}
	t.insertNoGrow(hash, ref)
	t.n++
}

func (t *Table) insertNoGrow(hash uint64, ref uint64) {
	b := &t.buckets[hash&t.mask]
	for b.used == fullMask {
		if b.overflow == nil {
			t.chain(b)
		}
		b = b.overflow
	}
	b.put(hash, ref)
}

// put stores (hash, ref) in the bucket's lowest free slot; the bucket must
// not be full.
func (b *bucket) put(hash, ref uint64) {
	i := bits.TrailingZeros8(^b.used)
	b.hashes[i] = hash
	b.refs[i] = ref
	b.used |= 1 << i
}

// chain links a fresh overflow bucket after tail, the last of its chain.
func (t *Table) chain(tail *bucket) {
	tail.overflow = &bucket{}
	t.overflowBuckets++
}

// Upsert points the entry matching hash and eq at ref and returns the ref
// it displaced, or inserts (hash, ref) when nothing matches. One walk of
// the chain does both: it remembers the first bucket with a free slot,
// which is where Insert would put the entry, so the table is left slot for
// slot as Replace followed by Insert would leave it. Like Insert, a table
// at its load limit grows before inserting.
func (t *Table) Upsert(hash uint64, eq EqualFunc, ref uint64) (old uint64, replaced bool) {
	var free, tail *bucket
	for b := &t.buckets[hash&t.mask]; b != nil; b = b.overflow {
		for m := b.used; m != 0; m &= m - 1 {
			i := bits.TrailingZeros8(m)
			if b.hashes[i] == hash && (eq == nil || eq(b.refs[i])) {
				old = b.refs[i]
				b.refs[i] = ref
				return old, true
			}
		}
		if free == nil && b.used != fullMask {
			free = b
		}
		tail = b
	}
	if t.n >= len(t.buckets)*maxLoad {
		t.Insert(hash, ref)
		return 0, false
	}
	if free == nil {
		t.chain(tail)
		free = tail.overflow
	}
	free.put(hash, ref)
	t.n++
	return 0, false
}

// Replace updates the ref of an existing entry (found by hash + eq) and
// returns the previous ref. ok is false when no entry matched.
func (t *Table) Replace(hash uint64, eq EqualFunc, newRef uint64) (old uint64, ok bool) {
	b := &t.buckets[hash&t.mask]
	for b != nil {
		for m := b.used; m != 0; m &= m - 1 {
			i := bits.TrailingZeros8(m)
			if b.hashes[i] == hash && (eq == nil || eq(b.refs[i])) {
				old = b.refs[i]
				b.refs[i] = newRef
				return old, true
			}
		}
		b = b.overflow
	}
	return 0, false
}

// Delete removes an entry and returns its ref. ok is false when no entry
// matched. Overflow buckets left empty by the removal are unlinked from
// the chain so they are neither scanned again nor counted as overflow.
func (t *Table) Delete(hash uint64, eq EqualFunc) (ref uint64, ok bool) {
	head := &t.buckets[hash&t.mask]
	prev := (*bucket)(nil)
	for b := head; b != nil; prev, b = b, b.overflow {
		for m := b.used; m != 0; m &= m - 1 {
			i := bits.TrailingZeros8(m)
			if b.hashes[i] == hash && (eq == nil || eq(b.refs[i])) {
				ref = b.refs[i]
				b.used &^= 1 << i
				t.n--
				if b.used == 0 && prev != nil {
					// The overflow bucket is empty: unlink and free it.
					prev.overflow = b.overflow
					t.overflowBuckets--
				}
				return ref, true
			}
		}
	}
	return 0, false
}

// ForEach visits every entry. The callback must not mutate the table.
func (t *Table) ForEach(fn func(hash, ref uint64)) {
	for i := range t.buckets {
		for b := &t.buckets[i]; b != nil; b = b.overflow {
			for m := b.used; m != 0; m &= m - 1 {
				s := bits.TrailingZeros8(m)
				fn(b.hashes[s], b.refs[s])
			}
		}
	}
}

// grow doubles the directory and rehashes every entry.
func (t *Table) grow() {
	old := t.buckets
	t.buckets = make([]bucket, len(old)*2)
	t.mask = uint64(len(t.buckets) - 1)
	t.overflowBuckets = 0
	for i := range old {
		for b := &old[i]; b != nil; b = b.overflow {
			for m := b.used; m != 0; m &= m - 1 {
				s := bits.TrailingZeros8(m)
				t.insertNoGrow(b.hashes[s], b.refs[s])
			}
		}
	}
}

// FNV-1a 64-bit, the key-hash function used throughout the system.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashKey hashes a (table, key) pair to the 64-bit key-hash space. The
// 8 bytes of the table id are folded in as one unrolled word (identical
// value to the former byte loop, without the loop-carried counter), then
// the key bytes are mixed in.
func HashKey(table uint64, key []byte) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ (table & 0xff)) * fnvPrime
	h = (h ^ (table >> 8 & 0xff)) * fnvPrime
	h = (h ^ (table >> 16 & 0xff)) * fnvPrime
	h = (h ^ (table >> 24 & 0xff)) * fnvPrime
	h = (h ^ (table >> 32 & 0xff)) * fnvPrime
	h = (h ^ (table >> 40 & 0xff)) * fnvPrime
	h = (h ^ (table >> 48 & 0xff)) * fnvPrime
	h = (h ^ (table >> 56)) * fnvPrime
	for _, c := range key {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}
