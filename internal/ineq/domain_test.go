package ineq

import (
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/logic/logictest"
	"repro/internal/oracle"
)

// domainDB holds a small E/L pair the queries read and an unrelated
// relation U of the given size that only the active domain can reach.
func domainDB(unrelated int) *database.Database {
	rng := rand.New(rand.NewSource(5))
	e, l := database.NewRelation("E", 2), database.NewRelation("L", 1)
	for i := 0; i < 64; i++ {
		e.InsertValues(database.Value(1+rng.Intn(32)), database.Value(1+rng.Intn(32)))
		l.InsertValues(database.Value(1 + rng.Intn(32)))
	}
	u := database.NewRelation("U", 2)
	for i := 0; i < unrelated; i++ {
		u.InsertValues(database.Value(100+i), database.Value(100+i/2))
	}
	db := database.NewDatabase()
	for _, r := range []*database.Relation{e, l, u} {
		r.Dedup()
		db.AddRelation(r)
	}
	return db
}

// A query whose variables all occur in positive atoms reads only its own
// relations: the active domain is never computed, so the work does not grow
// with an unrelated relation.
func TestBacktrackSkipsDomainScan(t *testing.T) {
	q := logictest.MustParseCQ("Q(x,y) :- E(x,y), L(y), x != y.")
	allocs := func(unrelated int) float64 {
		db := domainDB(unrelated)
		return testing.AllocsPerRun(5, func() {
			if _, err := EvalBacktrack(db, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1<<10), allocs(1<<16); small != large {
		t.Fatalf("allocs/op %v beside a 2^10-row unrelated relation, %v beside 2^16 rows", small, large)
	}
}

// A head variable that occurs only in a negated atom still ranges over the
// whole active domain, the unrelated relation's values included.
func TestBacktrackNegatedOnlyVariableRangesOverDomain(t *testing.T) {
	db := domainDB(16)
	for _, src := range []string{
		"Q(x,y) :- L(x), !E(x,y).",
		"Q(y) :- L(x), !E(x,y), x != y.",
	} {
		q := logictest.MustParseCQ(src)
		got, err := EvalBacktrack(db, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Eval(db, q)
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, src, got, want)
		reachesU := false
		for _, a := range got {
			if a[len(a)-1] >= 100 {
				reachesU = true
			}
		}
		if !reachesU {
			t.Errorf("%s: no answer takes a value of the unrelated relation", src)
		}
	}
}
