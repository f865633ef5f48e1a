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

// TestForcedCollisionsKeyMap runs the same degradation against KeyMap's
// Intern/Find chain.
func TestForcedCollisionsKeyMap(t *testing.T) {
	// KeyMap uses Tuple.KeyHash directly, so force collisions with real
	// colliding content instead: many tuples, tiny domain, then verify ids
	// are consistent between Intern and Find.
	rng := rand.New(rand.NewSource(7))
	km := NewKeyMap([]int{0, 1})
	type entry struct {
		t  Tuple
		id int
	}
	byKey := map[string]int{}
	var all []entry
	for i := 0; i < 500; i++ {
		tu := Tuple{Value(rng.Intn(5)), Value(rng.Intn(5)), Value(rng.Intn(100))}
		id := km.Intern(tu)
		k := tu.Key([]int{0, 1})
		if prev, ok := byKey[k]; ok && prev != id {
			t.Fatalf("key %q interned twice with ids %d and %d", k, prev, id)
		}
		byKey[k] = id
		all = append(all, entry{tu, id})
	}
	if km.Len() != len(byKey) {
		t.Fatalf("Len() = %d, want %d distinct keys", km.Len(), len(byKey))
	}
	for _, e := range all {
		if got := km.Find(e.t, []int{0, 1}); got != e.id {
			t.Fatalf("Find(%v) = %d, want %d", e.t, got, e.id)
		}
	}
	if got := km.Find(Tuple{9, 9}, []int{0, 1}); got != -1 {
		t.Fatalf("Find(miss) = %d, want -1", got)
	}
}

// TestColsSig checks the packed column-list signature is injective over the
// lists the cache actually sees, and that wide/large lists fall back.
func TestColsSig(t *testing.T) {
	lists := [][]int{
		{}, {0}, {1}, {0, 1}, {1, 0}, {2}, {0, 1, 2}, {2, 1, 0},
		{5, 3}, {3, 5}, {0, 0}, {125}, {1, 2, 3, 4, 5, 6, 7, 0},
	}
	seen := map[uint64][]int{}
	for _, l := range lists {
		sig, ok := colsSig(l)
		if !ok {
			t.Fatalf("colsSig(%v) not packable", l)
		}
		if prev, dup := seen[sig]; dup {
			t.Fatalf("colsSig collision: %v and %v -> %#x", prev, l, sig)
		}
		seen[sig] = l
	}
	if _, ok := colsSig([]int{126}); ok {
		t.Error("colsSig should reject column 126")
	}
	if _, ok := colsSig(make([]int, 9)); ok {
		t.Error("colsSig should reject 9 columns")
	}
	if a, b := colsSigBig([]int{1, 26}), colsSigBig([]int{12, 6}); a == b {
		t.Errorf("colsSigBig ambiguous: %q == %q", a, b)
	}
}

// TestLookupAllocs pins the probe path at zero allocations per operation:
// Index.Lookup, Index.Contains, Index.LookupRow, and KeyMap.Find.
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
			if row, ok := ix.LookupRow(probe, cols); ok {
				sink += len(row)
			}
		}
	}); n != 0 {
		t.Errorf("Index.LookupRow allocates %.1f per run, want 0", n)
	}
	km := NewKeyMap(cols)
	for _, tu := range r.Tuples {
		km.Intern(tu)
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
	_ = sink
}
