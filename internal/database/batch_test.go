package database

// In-package tests for the batch kernels: the zero-allocation contract of
// the warm batched probe path, correctness under an injected degraded
// hash (collision handling must survive batching), bit-identical
// fingerprints between the slab kernel and the scalar hash, and Compact's
// waste reclamation under sustained churn.

import (
	"math/rand"
	"testing"
)

// batchRelation builds a deduplicated random relation.
func batchRelation(rng *rand.Rand, name string, arity, n, dom int) *Relation {
	r := NewRelation(name, arity)
	for i := 0; i < n; i++ {
		t := make(Tuple, arity)
		for j := range t {
			t[j] = Value(1 + rng.Intn(dom))
		}
		r.Insert(t)
	}
	r.Dedup()
	return r
}

// TestHashColsMatchesKeyHash pins the batched fingerprint kernel to the
// scalar Tuple.KeyHash bit for bit, across the specialized one- and two-
// column loops and the generic fallback.
func TestHashColsMatchesKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, arity := range []int{1, 2, 3, 4} {
		r := batchRelation(rng, "R", arity, 200, 16)
		sl := r.Slab()
		sc := GetScratch()
		for k := 1; k <= arity; k++ {
			cols := rng.Perm(arity)[:k]
			ids := sc.Iota(r.Len())
			dst := make([]uint64, r.Len())
			sl.HashCols(cols, ids, dst)
			for i, tu := range r.Tuples {
				if want := tu.KeyHash(cols); dst[i] != want {
					t.Fatalf("arity %d cols %v row %d: HashCols %x, KeyHash %x", arity, cols, i, dst[i], want)
				}
			}
		}
		sc.Release()
	}
}

// TestBatchedProbeAllocs pins the warm batched probe path allocation-free:
// with the flat tables built and the scratch buffers grown, ContainsBatch
// and LookupBatch must not allocate.
func TestBatchedProbeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := batchRelation(rng, "R", 2, 4096, 512)
	s := batchRelation(rng, "S", 2, 4096, 512)
	ix := buildIndex(s.Tuples, []int{0}, s.Slab(), 1, nil)
	sl := r.Slab()
	cols := []int{1}
	sc := GetScratch()
	defer sc.Release()
	ix.ContainsBatch(sl, cols, sc.Iota(r.Len()), sc) // warm tables and buffers
	allocs := testing.AllocsPerRun(50, func() {
		ix.ContainsBatch(sl, cols, sc.Iota(r.Len()), sc)
	})
	if allocs != 0 {
		t.Fatalf("warm ContainsBatch: %v allocs/run, want 0", allocs)
	}
	emit := func(i int, ids []int32) {}
	allocs = testing.AllocsPerRun(50, func() {
		ix.LookupBatch(sl, cols, sc.Iota(r.Len()), sc, emit)
	})
	if allocs != 0 {
		t.Fatalf("warm LookupBatch: %v allocs/run, want 0", allocs)
	}
}

// sameIDs reports whether two row-id slices are identical element-wise.
func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedForcedCollisions degrades every fingerprint to one of two
// values (the scalar forced-collision setup) and checks that the batched
// kernels — flat tables, inline-key short-circuit, result cache — still
// resolve every probe exactly like the scalar Lookup/Contains path.
func TestBatchedForcedCollisions(t *testing.T) {
	degenerate := func(tu Tuple, cols []int) uint64 {
		if len(cols) > 0 {
			return uint64(tu[cols[0]]) & 1
		}
		return 0
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := batchRelation(rng, "S", 2, 1+rng.Intn(80), 12)
		r := batchRelation(rng, "R", 2, 1+rng.Intn(80), 14)
		cols := []int{rng.Intn(2)}
		probeCols := []int{rng.Intn(2)}
		sl := r.Slab()
		for _, par := range []int{1, 4} {
			ix := buildIndex(s.Tuples, cols, s.Slab(), par, degenerate)
			sc := GetScratch()
			ids := sc.Iota(r.Len())

			// ContainsBatch must keep exactly the scalar survivors, in order.
			got := ix.ContainsBatch(sl, probeCols, ids, sc)
			var want []int32
			for i, tu := range r.Tuples {
				if ix.Contains(tu, probeCols) {
					want = append(want, int32(i))
				}
			}
			if !sameIDs(got, want) {
				t.Fatalf("seed %d par %d: ContainsBatch %v, scalar %v", seed, par, got, want)
			}

			// LookupBatch must hand out the very buckets Lookup returns.
			pos := 0
			ix.LookupBatch(sl, probeCols, sc.Iota(r.Len()), sc, func(i int, bids []int32) {
				for pos < i {
					if n := len(ix.Lookup(r.Tuples[pos], probeCols)); n != 0 {
						t.Fatalf("seed %d par %d: LookupBatch skipped row %d with %d scalar rows", seed, par, pos, n)
					}
					pos++
				}
				if sids := ix.Lookup(r.Tuples[i], probeCols); !sameIDs(bids, sids) {
					t.Fatalf("seed %d par %d row %d: LookupBatch %v, Lookup %v", seed, par, i, bids, sids)
				}
				pos = i + 1
			})
			for ; pos < r.Len(); pos++ {
				if n := len(ix.Lookup(r.Tuples[pos], probeCols)); n != 0 {
					t.Fatalf("seed %d par %d: LookupBatch missed trailing row %d with %d scalar rows", seed, par, pos, n)
				}
			}
			sc.Release()
		}
	}
}
