package cq

import (
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic/logictest"
)

// arity0Instance builds the canonical arity-0-part shape: B shares no
// variable with the head, so the head-extended tree projects its subtree
// down to an arity-0 part (present iff B is nonempty after reduction).
func arity0Instance(t *testing.T) (*database.Database, *ConstRefresher, *OdometerCore) {
	t.Helper()
	q := logictest.MustParseCQ("Q(x) :- A(x), B(y).")
	db := database.NewDatabase()
	a := database.NewRelation("A", 1)
	for _, v := range []database.Value{1, 2, 3} {
		a.Insert(database.Tuple{v})
	}
	b := database.NewRelation("B", 1)
	b.Insert(database.Tuple{7})
	db.AddRelation(a)
	db.AddRelation(b)
	cr, core, err := NewConstRefresher(db, q)
	if err != nil {
		t.Fatalf("NewConstRefresher: %v", err)
	}
	return db, cr, core
}

// TestConstRefresherArity0Part pins the ROADMAP item 2 gap: deltas that
// flip an arity-0 part between {} and {()} used to make Apply decline
// unconditionally (forcing a rebuild); now they patch the core in place.
func TestConstRefresherArity0Part(t *testing.T) {
	db, cr, core := arity0Instance(t)

	// checkSeek also holds the counting pass and every seek to the
	// enumeration, over a part whose one row has no slab storage.
	answers := func() []database.Tuple { return checkSeek(t, "arity-0 part", core) }
	if got := answers(); len(got) != 3 {
		t.Fatalf("initial answers = %v, want 3", got)
	}

	dt := trackDeltas(db)

	// Kill the arity-0 part: its single empty tuple vanishes and every
	// answer dies with it.
	if !db.Relation("B").Delete(database.Tuple{7}) {
		t.Fatal("Delete removed nothing")
	}
	if !cr.Apply(dt.collect(t)) {
		t.Fatal("Apply declined the arity-0 delete (regression: rebuild fallback)")
	}
	if core.NonEmpty() {
		t.Fatal("core still NonEmpty with B empty")
	}
	if got := answers(); len(got) != 0 {
		t.Fatalf("answers = %v after emptying B, want none", got)
	}

	// Revive it with a different witness: the part flips back to {()}.
	db.Relation("B").Insert(database.Tuple{9})
	if !cr.Apply(dt.collect(t)) {
		t.Fatal("Apply declined the arity-0 insert")
	}
	if got := answers(); len(got) != 3 {
		t.Fatalf("answers = %v after reviving B, want 3", got)
	}

	// A second witness is absorbed by the multiset counters: no set-level
	// change, answers unchanged.
	db.Relation("B").Insert(database.Tuple{10})
	if !cr.Apply(dt.collect(t)) {
		t.Fatal("Apply declined the second witness insert")
	}
	if got := answers(); len(got) != 3 {
		t.Fatalf("answers = %v with two witnesses, want 3", got)
	}

	// Mutations on the non-trivial part still patch alongside.
	db.Relation("A").Insert(database.Tuple{4})
	if !cr.Apply(dt.collect(t)) {
		t.Fatal("Apply declined the A insert")
	}
	got := answers()
	fresh, err := PrepareConstantDelay(db, logictest.MustParseCQ("Q(x) :- A(x), B(y)."), nil)
	if err != nil {
		t.Fatalf("fresh prepare: %v", err)
	}
	equalAnswerSets(t, "after all arity-0 deltas", got, delay.Collect(fresh.Cursor(nil)))
}
