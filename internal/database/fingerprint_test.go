package database_test

// Equivalence suite for the fingerprint-keyed index: for 250 random
// relations, every probe through the fingerprint API must agree with the
// string-key (Tuple.Key) semantics the engine used before the columnar
// slab rewrite.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/database"
	"repro/internal/qgen"
)

func TestFingerprintMatchesStringKeys(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(4)
		r := qgen.RandRelation(rng, "R", arity, rng.Intn(50), 5)
		k := 1 + rng.Intn(arity)
		cols := rng.Perm(arity)[:k]
		ix := r.IndexOn(cols)

		// String-key ground truth: group rows by Tuple.Key.
		groups := map[string][]database.Tuple{}
		for _, tu := range r.Tuples {
			key := tu.Key(cols)
			groups[key] = append(groups[key], tu)
		}
		if ix.Buckets() != len(groups) {
			t.Fatalf("seed %d: Buckets() = %d, string keys = %d", seed, ix.Buckets(), len(groups))
		}

		// Probes over a larger domain so both hits and misses occur. The
		// probe tuple has its own random shape: key values land in probeCols
		// positions.
		probeCols := cols
		for i := 0; i < 30; i++ {
			probe := make(database.Tuple, arity)
			for j := range probe {
				probe[j] = database.Value(rng.Intn(7))
			}
			key := probe.Key(probeCols)
			want := groups[key]
			var got []database.Tuple
			for _, id := range ix.Lookup(probe, probeCols) {
				got = append(got, ix.Row(id))
			}
			if !reflect.DeepEqual(sortTuples(got), sortTuples(want)) {
				t.Fatalf("seed %d probe %v cols %v: Lookup = %v, string-key scan = %v\n%s",
					seed, probe, cols, got, want, dump(r))
			}
			if got := ix.Contains(probe, probeCols); got != (len(want) > 0) {
				t.Fatalf("seed %d probe %v: Contains = %v, want %v", seed, probe, got, len(want) > 0)
			}
			if ids := ix.Lookup(probe, probeCols); len(ids) > 0 {
				if row := ix.Row(ids[0]); row.Key(cols) != key {
					t.Fatalf("seed %d probe %v: first row %v, key %q != %q", seed, probe, row, row.Key(cols), key)
				}
			}
		}
	}
}

// TestContainsSortedAndUnsorted: Relation.Contains agrees with a scan in
// both the hash-probe (unsorted) and binary-search (sorted) regimes, and
// across the transitions insert→sort→insert.
func TestContainsSortedAndUnsorted(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		arity := 1 + rng.Intn(3)
		r := qgen.RandRelation(rng, "R", arity, rng.Intn(40), 4)
		check := func(stage string) {
			for i := 0; i < 25; i++ {
				probe := make(database.Tuple, arity)
				for j := range probe {
					probe[j] = database.Value(rng.Intn(6))
				}
				want := false
				for _, tu := range r.Tuples {
					if tu.Equal(probe) {
						want = true
						break
					}
				}
				if got := r.Contains(probe); got != want {
					t.Fatalf("seed %d %s: Contains(%v) = %v, scan = %v\n%s", seed, stage, probe, got, want, dump(r))
				}
			}
		}
		check("unsorted")
		r.Sort()
		check("sorted")
		r.InsertValues(make(database.Tuple, arity)...) // clears the sorted flag
		check("after insert")
		r.Dedup()
		check("after dedup")
	}
}
