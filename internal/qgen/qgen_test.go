package qgen

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// isSafe reports whether every head variable occurs in some positive atom.
func isSafe(q *logic.CQ) bool {
	body := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			body[v] = true
		}
	}
	for _, v := range q.Head {
		if !body[v] {
			return false
		}
	}
	return true
}

func TestFreeConnexCQProperties(t *testing.T) {
	cfg := Default()
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := FreeConnexCQ(rng, cfg)
		if len(q.Head) == 0 {
			t.Fatalf("seed %d: empty head: %s", seed, q)
		}
		if len(q.Head) > cfg.MaxHeadVars {
			t.Fatalf("seed %d: head arity %d > %d: %s", seed, len(q.Head), cfg.MaxHeadVars, q)
		}
		if !isSafe(q) {
			t.Fatalf("seed %d: unsafe query: %s", seed, q)
		}
		if !q.IsAcyclic() {
			t.Fatalf("seed %d: cyclic query: %s", seed, q)
		}
		if !q.IsFreeConnex() {
			t.Fatalf("seed %d: not free-connex: %s", seed, q)
		}
	}
}

func TestAcyclicCQProperties(t *testing.T) {
	cfg := Default()
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := AcyclicCQ(rng, cfg)
		if !isSafe(q) {
			t.Fatalf("seed %d: unsafe query: %s", seed, q)
		}
		if !q.IsAcyclic() {
			t.Fatalf("seed %d: cyclic query: %s", seed, q)
		}
	}
}

func TestFullCQHeadIsAllVars(t *testing.T) {
	cfg := Default()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := FullCQ(rng, cfg)
		if !reflect.DeepEqual(q.Head, q.Vars()) {
			t.Fatalf("seed %d: head %v != vars %v: %s", seed, q.Head, q.Vars(), q)
		}
		if !q.IsAcyclic() {
			t.Fatalf("seed %d: cyclic query: %s", seed, q)
		}
	}
}

func TestUCQProperties(t *testing.T) {
	cfg := Default()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := UCQ(rng, cfg)
		if err := u.Validate(); err != nil {
			t.Fatalf("seed %d: %v: %s", seed, err, u)
		}
		for _, d := range u.Disjuncts {
			if !d.IsAcyclic() || !d.IsFreeConnex() {
				t.Fatalf("seed %d: bad disjunct %s of %s", seed, d, u)
			}
		}
	}
}

// TestDatabaseForCoversPredicates uses testing/quick to check that every
// predicate of a generated query has a relation of the right arity.
func TestDatabaseForCoversPredicates(t *testing.T) {
	cfg := Default()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := AcyclicCQ(rng, cfg)
		db := DatabaseFor(rng, cfg, q)
		for _, a := range q.Atoms {
			r := db.Relation(a.Pred)
			if r == nil || r.Arity != len(a.Args) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDatabaseForRefusesTwoArities: a predicate used at two arities has
// no one relation that binds both queries, so DatabaseFor panics, naming
// the predicate and both arities.
func TestDatabaseForRefusesTwoArities(t *testing.T) {
	q1, err := logic.ParseCQ("Q(x,y) :- R0(x,y).")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := logic.ParseCQ("Q(x,y,z) :- R0(x,y,z).")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if msg == "" {
			t.Fatal("DatabaseFor built a database for R0 at arities 2 and 3")
		}
		for _, want := range []string{"R0", "arity 2", "arity 3"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %s", msg, want)
			}
		}
	}()
	DatabaseFor(rand.New(rand.NewSource(1)), Default(), q1, q2)
}

// TestDeterminism: the same seed must yield byte-identical instances, or
// failing seeds printed by the differential suites would not reproduce.
func TestDeterminism(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		q1, db1 := Instance(seed)
		q2, db2 := Instance(seed)
		if q1.String() != q2.String() {
			t.Fatalf("seed %d: queries differ: %s vs %s", seed, q1, q2)
		}
		if FormatDatabase(db1) != FormatDatabase(db2) {
			t.Fatalf("seed %d: databases differ", seed)
		}
	}
}

func TestRandRelationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := RandRelation(rng, "R", 3, 40, 4)
	if r.Arity != 3 {
		t.Fatalf("arity %d", r.Arity)
	}
	if r.Len() == 0 || r.Len() > 40 {
		t.Fatalf("len %d", r.Len())
	}
	for _, tp := range r.Tuples {
		for _, v := range tp {
			if v < 1 || v > 4 {
				t.Fatalf("value %d out of [1,4]", v)
			}
		}
	}
}
