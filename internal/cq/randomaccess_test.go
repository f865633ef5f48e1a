package cq

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic/logictest"
)

func TestRandomAccessBasics(t *testing.T) {
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	b := database.NewRelation("B", 2)
	for i := 0; i < 5; i++ {
		a.InsertValues(database.Value(i), database.Value(i%2))
		b.InsertValues(database.Value(i%2), database.Value(i))
	}
	db.AddRelation(a)
	db.AddRelation(b)
	q := logictest.MustParseCQ("Q(x,y,z) :- A(x,y), B(y,z).")
	ra, err := NewRandomAccess(db, q)
	if err != nil {
		t.Fatal(err)
	}
	want := q.EvalNaive(db)
	if ra.Count().Cmp(big.NewInt(int64(len(want)))) != 0 {
		t.Fatalf("count = %s, want %d", ra.Count(), len(want))
	}
	// All indices produce distinct, valid answers.
	seen := map[string]bool{}
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w.String()] = true
	}
	for i := int64(0); i < int64(len(want)); i++ {
		tup, err := ra.GetInt(i)
		if err != nil {
			t.Fatal(err)
		}
		k := tup.String()
		if seen[k] {
			t.Fatalf("duplicate at index %d: %v", i, tup)
		}
		if !wantSet[k] {
			t.Fatalf("invalid answer at index %d: %v", i, tup)
		}
		seen[k] = true
	}
	// Out of range.
	if _, err := ra.GetInt(int64(len(want))); err == nil {
		t.Errorf("out-of-range index must fail")
	}
	if _, err := ra.GetInt(-1); err == nil {
		t.Errorf("negative index must fail")
	}
}

func TestRandomAccessDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	checked := 0
	for trial := 0; trial < 600 && checked < 120; trial++ {
		q := randomACQ(rng)
		if !q.IsFreeConnex() || len(q.Head) == 0 {
			continue
		}
		checked++
		db := randomDB(rng, q, 3, 8)
		ra, err := NewRandomAccess(db, q)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}
		want := q.EvalNaive(db)
		if !ra.Count().IsInt64() || ra.Count().Int64() != int64(len(want)) {
			t.Fatalf("trial %d (%s): count %s want %d", trial, q, ra.Count(), len(want))
		}
		got := make([]database.Tuple, 0, len(want))
		for i := int64(0); i < int64(len(want)); i++ {
			tup, err := ra.GetInt(i)
			if err != nil {
				t.Fatalf("trial %d Get(%d): %v", trial, i, err)
			}
			got = append(got, tup.Clone())
		}
		equalAnswerSets(t, fmt.Sprintf("trial %d %s", trial, q), got, want)
	}
	if checked < 60 {
		t.Fatalf("too few free-connex samples: %d", checked)
	}
}

func TestRandomAccessBoolean(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	e.InsertValues(1, 2)
	db.AddRelation(e)
	ra, err := NewRandomAccess(db, logictest.MustParseCQ("B() :- E(x,y)."))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Count().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("Boolean count = %s", ra.Count())
	}
	tup, err := ra.GetInt(0)
	if err != nil || len(tup) != 0 {
		t.Fatalf("Boolean Get: %v, %v", tup, err)
	}
}

func TestRandomOrder(t *testing.T) {
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	for i := 0; i < 20; i++ {
		a.InsertValues(database.Value(i), database.Value(i%4))
	}
	db.AddRelation(a)
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y).")
	ra, err := NewRandomAccess(db, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	e, err := ra.RandomOrder(rng)
	if err != nil {
		t.Fatal(err)
	}
	got := delay.Collect(e)
	// With high probability the random order differs from the index order
	// (checked before equalAnswerSets, which sorts got in place).
	inOrder := true
	for i := range got {
		tup, _ := ra.GetInt(int64(i))
		if !tup.Equal(got[i]) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Errorf("random order equals index order (seed-dependent but very unlikely)")
	}
	want := q.EvalNaive(db)
	equalAnswerSets(t, "random order", got, want)
}

func TestRandomAccessRejectsNonFreeConnex(t *testing.T) {
	db := database.NewDatabase()
	db.AddRelation(database.NewRelation("A", 2))
	db.AddRelation(database.NewRelation("B", 2))
	if _, err := NewRandomAccess(db, logictest.MustParseCQ("Q(x,y) :- A(x,z), B(z,y).")); err == nil {
		t.Errorf("non-free-connex query must be rejected")
	}
}
