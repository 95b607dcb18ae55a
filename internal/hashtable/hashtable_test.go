package hashtable

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	ht := New(0)
	ht.Insert(42, 1001)
	ref, ok := ht.Lookup(42, nil)
	if !ok || ref != 1001 {
		t.Fatalf("lookup = %d, %v", ref, ok)
	}
	if _, ok := ht.Lookup(43, nil); ok {
		t.Fatal("lookup of absent hash succeeded")
	}
	if ht.Len() != 1 {
		t.Fatalf("len = %d", ht.Len())
	}
}

func TestEqualFuncDisambiguatesCollisions(t *testing.T) {
	ht := New(0)
	// Two distinct keys with the same 64-bit hash.
	ht.Insert(7, 100)
	ht.Insert(7, 200)
	ref, ok := ht.Lookup(7, func(r uint64) bool { return r == 200 })
	if !ok || ref != 200 {
		t.Fatalf("lookup = %d, %v", ref, ok)
	}
	ref, ok = ht.Lookup(7, func(r uint64) bool { return r == 100 })
	if !ok || ref != 100 {
		t.Fatalf("lookup = %d, %v", ref, ok)
	}
	if _, ok := ht.Lookup(7, func(r uint64) bool { return false }); ok {
		t.Fatal("eq=false lookup matched")
	}
}

func TestReplace(t *testing.T) {
	ht := New(0)
	ht.Insert(9, 500)
	old, ok := ht.Replace(9, nil, 600)
	if !ok || old != 500 {
		t.Fatalf("replace = %d, %v", old, ok)
	}
	ref, _ := ht.Lookup(9, nil)
	if ref != 600 {
		t.Fatalf("ref = %d", ref)
	}
	if _, ok := ht.Replace(10, nil, 1); ok {
		t.Fatal("replace of absent entry succeeded")
	}
	if ht.Len() != 1 {
		t.Fatalf("len = %d after replace", ht.Len())
	}
}

func TestDelete(t *testing.T) {
	ht := New(0)
	ht.Insert(1, 10)
	ht.Insert(2, 20)
	ref, ok := ht.Delete(1, nil)
	if !ok || ref != 10 {
		t.Fatalf("delete = %d, %v", ref, ok)
	}
	if _, ok := ht.Lookup(1, nil); ok {
		t.Fatal("deleted entry still found")
	}
	if ht.Len() != 1 {
		t.Fatalf("len = %d", ht.Len())
	}
	if _, ok := ht.Delete(1, nil); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestBucketOverflowChains(t *testing.T) {
	ht := New(0)
	// Force > 8 entries into one bucket: same low bits, table kept small by
	// inserting few total entries.
	base := uint64(5)
	for i := 0; i < 12; i++ {
		ht.Insert(base+uint64(i)*uint64(ht.DirectorySize()), uint64(1000+i))
	}
	if ht.OverflowBuckets() == 0 {
		t.Fatal("expected overflow buckets")
	}
	for i := 0; i < 12; i++ {
		h := base + uint64(i)*uint64(ht.DirectorySize())
		want := uint64(1000 + i)
		if ref, ok := ht.Lookup(h, func(r uint64) bool { return r == want }); !ok || ref != want {
			t.Fatalf("entry %d lost in overflow chain", i)
		}
	}
}

func TestDeleteFreesEmptiedOverflowBuckets(t *testing.T) {
	ht := New(0)
	dir := uint64(ht.DirectorySize())
	// 24 colliding entries -> a chain of 2 overflow buckets.
	for i := 0; i < 24; i++ {
		ht.Insert(5+uint64(i)*dir, uint64(1000+i))
	}
	if got := ht.OverflowBuckets(); got != 2 {
		t.Fatalf("overflow buckets = %d, want 2", got)
	}
	// Deleting everything must unlink and stop counting both chain buckets.
	for i := 0; i < 24; i++ {
		want := uint64(1000 + i)
		if _, ok := ht.Delete(5+uint64(i)*dir, func(r uint64) bool { return r == want }); !ok {
			t.Fatalf("entry %d not deleted", i)
		}
	}
	if got := ht.OverflowBuckets(); got != 0 {
		t.Fatalf("overflow buckets after drain = %d, want 0", got)
	}
	if ht.Len() != 0 {
		t.Fatalf("len = %d", ht.Len())
	}
	// The emptied chain must not strand later inserts: reinsert and find.
	for i := 0; i < 24; i++ {
		ht.Insert(5+uint64(i)*dir, uint64(2000+i))
	}
	for i := 0; i < 24; i++ {
		want := uint64(2000 + i)
		if _, ok := ht.Lookup(5+uint64(i)*dir, func(r uint64) bool { return r == want }); !ok {
			t.Fatalf("entry %d lost after reinsert", i)
		}
	}
}

func TestGrowRetainsEntries(t *testing.T) {
	ht := New(0)
	dir0 := ht.DirectorySize()
	n := 10_000
	for i := 0; i < n; i++ {
		ht.Insert(HashKey(1, []byte(fmt.Sprintf("key%d", i))), uint64(i))
	}
	if ht.DirectorySize() == dir0 {
		t.Fatal("directory never grew")
	}
	if ht.Len() != n {
		t.Fatalf("len = %d", ht.Len())
	}
	for i := 0; i < n; i++ {
		want := uint64(i)
		h := HashKey(1, []byte(fmt.Sprintf("key%d", i)))
		if _, ok := ht.Lookup(h, func(r uint64) bool { return r == want }); !ok {
			t.Fatalf("key%d lost after grow", i)
		}
	}
}

func TestForEach(t *testing.T) {
	ht := New(0)
	for i := 0; i < 100; i++ {
		ht.Insert(uint64(i)*2654435761, uint64(i))
	}
	seen := map[uint64]bool{}
	ht.ForEach(func(hash, ref uint64) { seen[ref] = true })
	if len(seen) != 100 {
		t.Fatalf("ForEach visited %d entries, want 100", len(seen))
	}
}

func TestSizeHint(t *testing.T) {
	ht := New(100_000)
	if ht.DirectorySize()*maxLoad < 100_000 {
		t.Fatalf("directory %d too small for hint", ht.DirectorySize())
	}
}

func TestHashKeyDistinguishesTables(t *testing.T) {
	if HashKey(1, []byte("k")) == HashKey(2, []byte("k")) {
		t.Fatal("same hash across tables")
	}
	if HashKey(1, []byte("a")) == HashKey(1, []byte("b")) {
		t.Fatal("same hash across keys")
	}
}

// TestModelEquivalence drives the table and a reference map with the same
// random operations and checks they agree at every step.
func TestModelEquivalence(t *testing.T) {
	type entry struct {
		hash uint64
		ref  uint64
	}
	rng := rand.New(rand.NewSource(3))
	ht := New(0)
	model := map[uint64]uint64{} // ref -> hash (refs unique)
	var live []entry
	for op := 0; op < 20_000; op++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(live) == 0: // insert
			e := entry{hash: rng.Uint64() % 512, ref: uint64(op) + 1}
			ht.Insert(e.hash, e.ref)
			model[e.ref] = e.hash
			live = append(live, e)
		case r < 8: // delete random live entry
			i := rng.Intn(len(live))
			e := live[i]
			ref, ok := ht.Delete(e.hash, func(x uint64) bool { return x == e.ref })
			if !ok || ref != e.ref {
				t.Fatalf("op %d: delete(%d,%d) = %d,%v", op, e.hash, e.ref, ref, ok)
			}
			delete(model, e.ref)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // replace
			i := rng.Intn(len(live))
			e := live[i]
			newRef := uint64(op) + 1_000_000_000
			old, ok := ht.Replace(e.hash, func(x uint64) bool { return x == e.ref }, newRef)
			if !ok || old != e.ref {
				t.Fatalf("op %d: replace failed", op)
			}
			delete(model, e.ref)
			model[newRef] = e.hash
			live[i] = entry{hash: e.hash, ref: newRef}
		}
		if ht.Len() != len(model) {
			t.Fatalf("op %d: len %d != model %d", op, ht.Len(), len(model))
		}
	}
	// Final: every model entry findable.
	for ref, hash := range model {
		ref := ref
		if _, ok := ht.Lookup(hash, func(x uint64) bool { return x == ref }); !ok {
			t.Fatalf("entry (%d,%d) lost", hash, ref)
		}
	}
}

func TestQuickInsertThenFind(t *testing.T) {
	f := func(keys [][]byte) bool {
		ht := New(0)
		refs := map[string]uint64{}
		for i, k := range keys {
			s := string(k)
			if _, dup := refs[s]; dup {
				continue
			}
			ref := uint64(i) + 1
			ht.Insert(HashKey(5, k), ref)
			refs[s] = ref
		}
		for s, want := range refs {
			h := HashKey(5, []byte(s))
			if _, ok := ht.Lookup(h, func(r uint64) bool { return r == want }); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUpsertMatchesReplaceInsert drives one table with Upsert and one with
// Replace followed by Insert through the same random upserts and deletes,
// and checks that they agree slot for slot. Keys come in threes that share
// a full 64-bit hash, so only eq separates them; in some sequences every
// hash also shares its low bits, so chains grow overflow buckets; and the
// key space exceeds the starting directory's load limit, so upserts cross
// grows.
func TestUpsertMatchesReplaceInsert(t *testing.T) {
	type slot struct{ hash, ref uint64 }
	layout := func(ht *Table) []slot {
		var out []slot
		ht.ForEach(func(hash, ref uint64) { out = append(out, slot{hash, ref}) })
		return out
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Intn(1500)
		shift := uint(rng.Intn(2) * 6) // 6: every hash lands in one starting bucket
		hash := func(k uint64) uint64 { return (k/3*0x9E3779B97F4A7C15 | 1) << shift }
		// A ref carries its key in the high half, so eq can tell keys apart.
		eq := func(k uint64) EqualFunc { return func(r uint64) bool { return r>>32 == k } }
		up, pair := New(0), New(0)
		for op := uint64(1); op <= 3000; op++ {
			k := uint64(rng.Intn(keys))
			h := hash(k)
			if rng.Intn(4) == 0 {
				r1, ok1 := up.Delete(h, eq(k))
				r2, ok2 := pair.Delete(h, eq(k))
				if r1 != r2 || ok1 != ok2 {
					t.Logf("seed %d op %d: delete %d,%v vs %d,%v", seed, op, r1, ok1, r2, ok2)
					return false
				}
				continue
			}
			ref := k<<32 | op
			old1, ok1 := up.Upsert(h, eq(k), ref)
			old2, ok2 := pair.Replace(h, eq(k), ref)
			if !ok2 {
				pair.Insert(h, ref)
			}
			if old1 != old2 || ok1 != ok2 {
				t.Logf("seed %d op %d: upsert %d,%v vs replace %d,%v", seed, op, old1, ok1, old2, ok2)
				return false
			}
		}
		if up.Len() != pair.Len() || up.OverflowBuckets() != pair.OverflowBuckets() ||
			up.DirectorySize() != pair.DirectorySize() {
			t.Logf("seed %d: len %d/%d overflow %d/%d dir %d/%d", seed, up.Len(), pair.Len(),
				up.OverflowBuckets(), pair.OverflowBuckets(), up.DirectorySize(), pair.DirectorySize())
			return false
		}
		for k := uint64(0); k < uint64(keys); k++ {
			r1, ok1 := up.Lookup(hash(k), eq(k))
			r2, ok2 := pair.Lookup(hash(k), eq(k))
			if r1 != r2 || ok1 != ok2 {
				t.Logf("seed %d: lookup of key %d: %d,%v vs %d,%v", seed, k, r1, ok1, r2, ok2)
				return false
			}
		}
		a, b := layout(up), layout(pair)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				t.Logf("seed %d: ForEach differs at %d: %v vs %v", seed, i, a[i], b[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUpsert(t *testing.T) {
	ht := New(0)
	if old, ok := ht.Upsert(9, nil, 500); ok || old != 0 {
		t.Fatalf("upsert of new key = %d, %v", old, ok)
	}
	if old, ok := ht.Upsert(9, nil, 600); !ok || old != 500 {
		t.Fatalf("upsert of present key = %d, %v", old, ok)
	}
	if ref, _ := ht.Lookup(9, nil); ref != 600 || ht.Len() != 1 {
		t.Fatalf("ref = %d, len = %d", ref, ht.Len())
	}
}
