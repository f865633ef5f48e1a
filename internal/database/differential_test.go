package database_test

// Differential tests for the relational primitives: the hash-based
// Semijoin/Join and the index are compared against
// transparent nested-loop references on random relations from
// internal/qgen. (External test package: qgen itself depends on database.)

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/database"
	"repro/internal/qgen"
)

// naiveSemijoin is the textbook nested-loop semijoin.
func naiveSemijoin(r *database.Relation, rCols []int, s *database.Relation, sCols []int) []database.Tuple {
	var out []database.Tuple
	for _, t := range r.Tuples {
		for _, u := range s.Tuples {
			match := true
			for i := range rCols {
				if t[rCols[i]] != u[sCols[i]] {
					match = false
					break
				}
			}
			if match {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// naiveJoin is the textbook nested-loop natural join: r's columns followed
// by s's non-join columns.
func naiveJoin(r *database.Relation, rCols []int, s *database.Relation, sCols []int) []database.Tuple {
	skip := make(map[int]bool)
	for _, c := range sCols {
		skip[c] = true
	}
	var out []database.Tuple
	for _, t := range r.Tuples {
		for _, u := range s.Tuples {
			match := true
			for i := range rCols {
				if t[rCols[i]] != u[sCols[i]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			row := append(database.Tuple(nil), t...)
			for c, v := range u {
				if !skip[c] {
					row = append(row, v)
				}
			}
			out = append(out, row)
		}
	}
	return out
}

func sortTuples(ts []database.Tuple) []database.Tuple {
	out := append([]database.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// randomJoinArgs draws two relations plus aligned join columns.
func randomJoinArgs(rng *rand.Rand) (r, s *database.Relation, rCols, sCols []int) {
	ra := 1 + rng.Intn(3)
	sa := 1 + rng.Intn(3)
	k := 1 + rng.Intn(min(ra, sa))
	r = qgen.RandRelation(rng, "R", ra, rng.Intn(30), 4)
	s = qgen.RandRelation(rng, "S", sa, rng.Intn(30), 4)
	rCols = rng.Perm(ra)[:k]
	sCols = rng.Perm(sa)[:k]
	return r, s, rCols, sCols
}

func TestDifferentialSemijoin(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, s, rCols, sCols := randomJoinArgs(rng)
		want := sortTuples(naiveSemijoin(r, rCols, s, sCols))
		got := sortTuples(database.Semijoin(r, rCols, s, sCols).Tuples)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Semijoin %v != naive %v (rCols %v, sCols %v)\n%s%s",
				seed, got, want, rCols, sCols, dump(r), dump(s))
		}
	}
}

func TestDifferentialJoin(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, s, rCols, sCols := randomJoinArgs(rng)
		want := sortTuples(naiveJoin(r, rCols, s, sCols))
		got := sortTuples(database.Join("J", r, rCols, s, sCols).Tuples)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Join %v != naive %v (rCols %v, sCols %v)\n%s%s",
				seed, got, want, rCols, sCols, dump(r), dump(s))
		}
	}
}

// TestDifferentialIndex: a sharded index lookup returns exactly the tuples
// a scan finds, for every key that occurs and for some that don't.
func TestDifferentialIndex(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(3)
		r := qgen.RandRelation(rng, "R", arity, rng.Intn(40), 4)
		k := 1 + rng.Intn(arity)
		cols := rng.Perm(arity)[:k]
		idx := r.IndexOn(cols)
		// Probe tuples drawn over a slightly larger domain so some keys
		// miss.
		probe := qgen.RandRelation(rng, "P", arity, 20, 5)
		for _, p := range probe.Tuples {
			key := p.Key(cols)
			var want []database.Tuple
			for _, tp := range r.Tuples {
				if tp.Key(cols) == key {
					want = append(want, tp)
				}
			}
			var got []database.Tuple
			for _, id := range idx.Lookup(p, cols) {
				got = append(got, idx.Row(id))
			}
			if !reflect.DeepEqual(sortTuples(got), sortTuples(want)) {
				t.Fatalf("seed %d: Lookup(%q) = %v, scan = %v\n%s", seed, key, got, want, dump(r))
			}
		}
	}
}

// TestDifferentialProject: Project equals a by-hand column extraction.
func TestDifferentialProject(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(4)
		r := qgen.RandRelation(rng, "R", arity, rng.Intn(30), 4)
		k := 1 + rng.Intn(arity)
		cols := rng.Perm(arity)[:k]
		// Project has set semantics: duplicates collapse.
		var want []database.Tuple
		seen := make(map[string]bool)
		for _, tp := range r.Tuples {
			row := make(database.Tuple, len(cols))
			for i, c := range cols {
				row[i] = tp[c]
			}
			if k := row.FullKey(); !seen[k] {
				seen[k] = true
				want = append(want, row)
			}
		}
		got := r.Project("P", cols)
		if !reflect.DeepEqual(sortTuples(got.Tuples), sortTuples(want)) {
			t.Fatalf("seed %d: Project(%v) = %v, want %v\n%s", seed, cols, got.Tuples, want, dump(r))
		}
	}
}

func dump(r *database.Relation) string {
	db := database.NewDatabase()
	db.AddRelation(r)
	return qgen.FormatDatabase(db)
}

// TestDifferentialGroupSemijoin: GroupSemijoin keeps Semijoin's rows, lays
// them out in contiguous key groups in the order s's rows first reach
// them, and links every row of s to exactly its matching rows of r, in r's
// order. Under the default fingerprint and under forced collisions.
func TestDifferentialGroupSemijoin(t *testing.T) {
	check := func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r, s, rCols, sCols := randomJoinArgs(rng)
			out, links := database.GroupSemijoin(r, rCols, s, sCols)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d (rCols %v, sCols %v): %s\n%s%s", seed, rCols, sCols, fmt.Sprintf(format, args...), dump(r), dump(s))
			}
			if got, want := sortTuples(out.Tuples), sortTuples(database.Semijoin(r, rCols, s, sCols).Tuples); !reflect.DeepEqual(got, want) {
				fail("rows %v, Semijoin %v", got, want)
			}
			if len(links) != len(s.Tuples) {
				fail("%d links for %d rows of s", len(links), len(s.Tuples))
			}
			placed := int32(0) // rows of out covered by groups met so far
			for i, u := range s.Tuples {
				var want []database.Tuple
				for _, tp := range r.Tuples {
					if tp.Key(rCols) == u.Key(sCols) {
						want = append(want, tp)
					}
				}
				l := links[i]
				if int(l.Len) != len(want) || l.Off < 0 || int(l.Off+l.Len) > len(out.Tuples) {
					fail("s row %d %v: range %+v over %d rows, %d matches", i, u, l, len(out.Tuples), len(want))
				}
				if got := out.Tuples[l.Off : l.Off+l.Len]; len(want) > 0 && !reflect.DeepEqual(got, want) {
					fail("s row %d %v: range holds %v, matches are %v", i, u, got, want)
				}
				if l.Len > 0 && l.Off >= placed {
					if l.Off != placed {
						fail("s row %d %v: new group at %d, want %d (first-reach order)", i, u, l.Off, placed)
					}
					placed += l.Len
				}
			}
			if int(placed) != len(out.Tuples) {
				fail("groups cover %d of %d rows", placed, len(out.Tuples))
			}
		}
	}
	t.Run("default", check)
	t.Run("collisions", func(t *testing.T) {
		defer database.SetIndexHashForTesting(func(tu database.Tuple, cols []int) uint64 {
			return uint64(tu[cols[0]]) & 1
		})()
		check(t)
	})
}
