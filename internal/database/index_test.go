package database

// In-package tests for the fingerprint index: collision handling uses the
// injectable hash function, which the exported API deliberately hides.

import (
	"math/rand"
	"sort"
	"testing"
)

// TestForcedCollisions degrades every fingerprint to one of two values, so
// almost all distinct keys collide, and checks that build-time bucket
// splitting plus probe-time key comparison still return exactly the
// matching rows.
func TestForcedCollisions(t *testing.T) {
	degenerate := func(tu Tuple, cols []int) uint64 {
		// Two hash values only: parity of the first key column.
		if len(cols) > 0 {
			return uint64(tu[cols[0]]) & 1
		}
		return 0
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation("R", 2)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			r.InsertValues(Value(rng.Intn(12)), Value(rng.Intn(12)))
		}
		cols := []int{rng.Intn(2)}
		ix := buildIndex(r.Tuples, cols, r.Slab(), degenerate)
		// Every probe (hits and misses) must return scan-exact rows.
		for probe := Value(0); probe < 14; probe++ {
			pt := Tuple{probe, probe}
			var want []Tuple
			for _, tu := range r.Tuples {
				if tu[cols[0]] == probe {
					want = append(want, tu)
				}
			}
			var got []Tuple
			for _, id := range ix.Lookup(pt, cols) {
				got = append(got, ix.Row(id))
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d probe %d: got %d rows, scan %d", seed, probe, len(got), len(want))
			}
			sort.Slice(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 })
			sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("seed %d probe %d: row %d = %v, want %v", seed, probe, i, got[i], want[i])
				}
			}
		}
		// Bucket count must reflect true keys, not fingerprints.
		keys := map[Value]bool{}
		for _, tu := range r.Tuples {
			keys[tu[cols[0]]] = true
		}
		if ix.Buckets() != len(keys) {
			t.Fatalf("seed %d: Buckets() = %d, want %d true keys", seed, ix.Buckets(), len(keys))
		}
	}
}

// TestForcedCollisionsKeyMap runs KeyMap's Intern/Find chain under a
// two-value fingerprint, installed the way the cross-package suites install
// theirs, for 0-, 1- and 2-column keys probed on varying columns: ids,
// Len, Key and Find must match a brute-force list of the distinct keys, so
// two keys that share a fingerprint are told apart by their values.
func TestForcedCollisionsKeyMap(t *testing.T) {
	defer SetIndexHashForTesting(func(tu Tuple, cols []int) uint64 {
		if len(cols) > 0 {
			return uint64(tu[cols[0]]) & 1
		}
		return 0
	})()
	project := func(tu Tuple, cols []int) Tuple {
		k := make(Tuple, len(cols))
		for i, c := range cols {
			k[i] = tu[c]
		}
		return k
	}
	for width := 0; width <= 2; width++ {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cols := rng.Perm(3)[:width]
			km := NewKeyMap(width)
			if km.hash == nil {
				t.Fatal("NewKeyMap ignored SetIndexHashForTesting")
			}
			var ref []Tuple // the distinct keys in interning order
			find := func(key Tuple) int {
				for id, k := range ref {
					if k.Equal(key) {
						return id
					}
				}
				return -1
			}
			randTuple := func(dom int) Tuple {
				return Tuple{Value(rng.Intn(dom)), Value(rng.Intn(dom)), Value(rng.Intn(dom))}
			}
			for i := 0; i < 300; i++ {
				tu := randTuple(6)
				key := project(tu, cols)
				want := find(key)
				if want < 0 {
					want = len(ref)
					ref = append(ref, key)
				}
				if got := km.Intern(tu, cols); got != want {
					t.Fatalf("width %d seed %d: Intern(%v on %v) = %d, want %d", width, seed, tu, cols, got, want)
				}
			}
			if km.Len() != len(ref) {
				t.Fatalf("width %d seed %d: Len() = %d, want %d distinct keys", width, seed, km.Len(), len(ref))
			}
			for id, key := range ref {
				if !km.Key(id).Equal(key) || km.Find(key, nil) != id {
					t.Fatalf("width %d seed %d: id %d holds %v, Find = %d, want %v", width, seed, id, km.Key(id), km.Find(key, nil), key)
				}
			}
			for i := 0; i < 100; i++ {
				p := randTuple(8)
				if got, want := km.Find(p, cols), find(project(p, cols)); got != want {
					t.Fatalf("width %d seed %d: Find(%v on %v) = %d, want %d", width, seed, p, cols, got, want)
				}
			}
		}
	}
}

// TestIndexKey checks the index-cache key is injective over the lists the
// cache sees, the wide lists and large column numbers included.
func TestIndexKey(t *testing.T) {
	lists := [][]int{
		{}, {0}, {1}, {0, 1}, {1, 0}, {2}, {0, 1, 2}, {2, 1, 0},
		{5, 3}, {3, 5}, {0, 0}, {125}, {1, 2, 3, 4, 5, 6, 7, 0},
		{126}, make([]int, 9), {1, 26}, {12, 6}, {127}, {128}, {127, 1},
		{300}, {44, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	seen := map[string][]int{}
	for _, l := range lists {
		key := string(indexKey(nil, l))
		if prev, dup := seen[key]; dup {
			t.Fatalf("indexKey collision: %v and %v -> %q", prev, l, key)
		}
		seen[key] = l
	}
}

// lookupRow returns the first indexed row matching probe on probeCols, as
// a view into the slab.
func lookupRow(ix *Index, probe Tuple, probeCols []int) (Tuple, bool) {
	ids := ix.Lookup(probe, probeCols)
	if len(ids) == 0 {
		return nil, false
	}
	return ix.Row(ids[0]), true
}

// TestLookupAllocs pins the probe path at zero allocations per operation:
// Index.Lookup, Index.Contains, a first-row lookup, KeyMap.Find, and an
// IndexOn cache hit at 2 and at 10 columns.
func TestLookupAllocs(t *testing.T) {
	r := NewRelation("R", 2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		r.InsertValues(Value(rng.Intn(1000)), Value(rng.Intn(1000)))
	}
	r.Dedup()
	cols := []int{0}
	ix := r.IndexOn(cols)
	probe := Tuple{500, 500}
	var sink int
	if n := testing.AllocsPerRun(200, func() {
		for v := Value(0); v < 64; v++ {
			probe[0] = v
			sink += len(ix.Lookup(probe, cols))
		}
	}); n != 0 {
		t.Errorf("Index.Lookup allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		for v := Value(0); v < 64; v++ {
			probe[0] = v
			if ix.Contains(probe, cols) {
				sink++
			}
		}
	}); n != 0 {
		t.Errorf("Index.Contains allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		for v := Value(0); v < 64; v++ {
			probe[0] = v
			if row, ok := lookupRow(ix, probe, cols); ok {
				sink += len(row)
			}
		}
	}); n != 0 {
		t.Errorf("lookupRow allocates %.1f per run, want 0", n)
	}
	km := NewKeyMap(len(cols))
	for _, tu := range r.Tuples {
		km.Intern(tu, cols)
	}
	if n := testing.AllocsPerRun(200, func() {
		for v := Value(0); v < 64; v++ {
			probe[0] = v
			sink += km.Find(probe, cols)
		}
	}); n != 0 {
		t.Errorf("KeyMap.Find allocates %.1f per run, want 0", n)
	}
	// Relation.Contains on a sorted relation is allocation-free too.
	r.Sort()
	if n := testing.AllocsPerRun(200, func() {
		for v := Value(0); v < 64; v++ {
			probe[0] = v
			if r.Contains(probe) {
				sink++
			}
		}
	}); n != 0 {
		t.Errorf("sorted Relation.Contains allocates %.1f per run, want 0", n)
	}
	wide := NewRelation("W", 10)
	for i := 0; i < 64; i++ {
		row := make(Tuple, 10)
		for j := range row {
			row[j] = Value(rng.Intn(8))
		}
		wide.Insert(row)
	}
	for _, cols := range [][]int{{1, 0}, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0}} {
		ix := wide.IndexOn(cols)
		if n := testing.AllocsPerRun(200, func() {
			if wide.IndexOn(cols) != ix {
				t.Fatal("IndexOn missed its cache")
			}
		}); n != 0 {
			t.Errorf("IndexOn hit on %d columns allocates %.1f per run, want 0", len(cols), n)
		}
	}
	_ = sink
}
