package database_test

// 250-seed differential between the scalar and the vectorized probe
// engines: Semijoin/ParSemijoin/Join through the batch kernels must equal
// SemijoinScalar/JoinScalar tuple for tuple, IN ORDER — not just as sets.
// Order-exactness is what lets the cq layer's per-result step counting
// stay bit-identical when the kernels are swapped, so it is asserted
// directly here.

import (
	"math/rand"
	"testing"

	"repro/internal/database"
)

// skewedRelation draws a relation whose key skew varies by seed: small
// domains produce long equal-key runs (exercising the kernels' result
// cache), large domains produce near-unique keys (exercising the flat
// tables), and sizes cross the parallel-probe cutoff at 1024.
func skewedRelation(rng *rand.Rand, name string, arity int) *database.Relation {
	n := 1 + rng.Intn(2000)
	dom := 1 + rng.Intn(3*n)
	if rng.Intn(3) == 0 {
		dom = 1 + rng.Intn(20) // heavy duplication
	}
	r := database.NewRelation(name, arity)
	for i := 0; i < n; i++ {
		t := make(database.Tuple, arity)
		for j := range t {
			t[j] = database.Value(1 + rng.Intn(dom))
		}
		r.Tuples = append(r.Tuples, t)
	}
	r.Dedup()
	return r
}

func tuplesEqualOrdered(a, b []database.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestDifferentialScalarBatchSemijoin(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ra := 1 + rng.Intn(3)
		sa := 1 + rng.Intn(3)
		k := 1 + rng.Intn(min(ra, sa))
		r := skewedRelation(rng, "R", ra)
		s := skewedRelation(rng, "S", sa)
		rCols := rng.Perm(ra)[:k]
		sCols := rng.Perm(sa)[:k]

		want := database.SemijoinScalar(r, rCols, s, sCols)
		got := database.Semijoin(r, rCols, s, sCols)
		if !tuplesEqualOrdered(got.Tuples, want.Tuples) {
			t.Fatalf("seed %d: batched Semijoin %d tuples, scalar %d (or order drift)", seed, got.Len(), want.Len())
		}
		for _, par := range []int{1, 4} {
			gotPar := database.ParSemijoin(r, rCols, s, sCols, par)
			if !tuplesEqualOrdered(gotPar.Tuples, want.Tuples) {
				t.Fatalf("seed %d par %d: batched ParSemijoin diverges from scalar", seed, par)
			}
		}
	}
}

func TestDifferentialScalarBatchJoin(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		ra := 1 + rng.Intn(3)
		sa := 1 + rng.Intn(3)
		k := 1 + rng.Intn(min(ra, sa))
		r := skewedRelation(rng, "R", ra)
		s := skewedRelation(rng, "S", sa)
		rCols := rng.Perm(ra)[:k]
		sCols := rng.Perm(sa)[:k]

		want := database.JoinScalar("J", r, rCols, s, sCols)
		got := database.Join("J", r, rCols, s, sCols)
		if !tuplesEqualOrdered(got.Tuples, want.Tuples) {
			t.Fatalf("seed %d: batched Join %d tuples, scalar %d (or order drift)", seed, got.Len(), want.Len())
		}
	}
}
