package cq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// ----- helpers -----

func sortTuples(ts []database.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func equalAnswerSets(t *testing.T, label string, got, want []database.Tuple) {
	t.Helper()
	sortTuples(got)
	sortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d answers, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: answer %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

// randomDB builds a database with relations named by the atoms of q, with
// random small contents.
func randomDB(rng *rand.Rand, q *logic.CQ, domSize, relSize int) *database.Database {
	db := database.NewDatabase()
	for _, a := range q.Atoms {
		if db.Relation(a.Pred) != nil {
			continue
		}
		r := database.NewRelation(a.Pred, len(a.Args))
		for i := 0; i < relSize; i++ {
			t := make(database.Tuple, len(a.Args))
			for j := range t {
				t[j] = database.Value(rng.Intn(domSize) + 1)
			}
			r.Insert(t)
		}
		r.Dedup()
		db.AddRelation(r)
	}
	return db
}

// randomACQ generates a random acyclic conjunctive query: each new atom
// shares variables with a single previously generated atom, which keeps the
// hypergraph GYO-reducible.
func randomACQ(rng *rand.Rand) *logic.CQ {
	numAtoms := 1 + rng.Intn(4)
	var atoms []logic.Atom
	varCount := 0
	fresh := func() string { varCount++; return fmt.Sprintf("v%d", varCount) }
	for i := 0; i < numAtoms; i++ {
		var vars []string
		if i > 0 {
			prev := atoms[rng.Intn(len(atoms))]
			pv := prev.Vars()
			for _, v := range pv {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
		}
		for len(vars) == 0 || rng.Intn(3) == 0 {
			vars = append(vars, fresh())
			if len(vars) >= 3 {
				break
			}
		}
		atoms = append(atoms, logic.NewAtom(fmt.Sprintf("R%d", i), vars...))
	}
	q := &logic.CQ{Name: "Q", Atoms: atoms}
	all := q.Vars()
	for _, v := range all {
		if rng.Intn(2) == 0 {
			q.Head = append(q.Head, v)
		}
	}
	return q
}

// ----- unit tests -----

func TestAtomRelationConstantsAndSelfEquality(t *testing.T) {
	db := database.NewDatabase()
	r := database.NewRelation("R", 3)
	r.InsertValues(1, 7, 1)
	r.InsertValues(2, 7, 1)
	r.InsertValues(1, 8, 1)
	db.AddRelation(r)

	// R(x, 7, x): constants and repeated variables.
	a := logic.Atom{Pred: "R", Args: []logic.Term{logic.V("x"), logic.C(7), logic.V("x")}}
	rel, err := AtomRelation(db, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Schema) != 1 || rel.Schema[0] != "x" {
		t.Fatalf("schema: %v", rel.Schema)
	}
	if rel.R.Len() != 1 || rel.R.Tuples[0][0] != 1 {
		t.Fatalf("tuples: %v", rel.R.Tuples)
	}
}

func TestAtomRelationErrors(t *testing.T) {
	db := database.NewDatabase()
	r := database.NewRelation("R", 2)
	db.AddRelation(r)
	if _, err := AtomRelation(db, logic.NewAtom("S", "x")); err == nil {
		t.Errorf("unknown relation must fail")
	}
	if _, err := AtomRelation(db, logic.NewAtom("R", "x")); err == nil {
		t.Errorf("arity mismatch must fail")
	}
}

func TestDecideAndEvalPath(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	for _, p := range [][2]database.Value{{1, 2}, {2, 3}, {3, 4}} {
		e.InsertValues(p[0], p[1])
	}
	db.AddRelation(e)

	q := logictest.MustParseCQ("Q(x,z) :- E(x,y), E(y,z).")
	got, err := Eval(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := q.EvalNaive(db)
	equalAnswerSets(t, "path eval", got, want)

	bq := logictest.MustParseCQ("B() :- E(x,y), E(y,z), E(z,w).")
	ok, err := Decide(db, bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("three-step path exists")
	}
	bq4 := logictest.MustParseCQ("B() :- E(x,y), E(y,z), E(z,w), E(w,u).")
	ok, err = Decide(db, bq4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("four-step path does not exist")
	}
}

func TestRejectsCyclicNegatedComparisons(t *testing.T) {
	db := database.NewDatabase()
	db.AddRelation(database.NewRelation("E", 2))
	if _, err := Eval(db, logictest.MustParseCQ("Q() :- E(x,y), E(y,z), E(z,x)."), nil); err == nil {
		t.Errorf("cyclic query must be rejected")
	}
	if _, err := Eval(db, logictest.MustParseCQ("Q(x) :- E(x,y), !E(y,x)."), nil); err == nil {
		t.Errorf("negated atoms must be rejected")
	}
	if _, err := Eval(db, logictest.MustParseCQ("Q(x) :- E(x,y), x != y."), nil); err == nil {
		t.Errorf("comparisons must be rejected")
	}
	if _, err := Eval(db, logictest.MustParseCQ("Q(x,w) :- E(x,y)."), nil); err == nil {
		t.Errorf("unsafe head variable must be rejected")
	}
}

// The Figure 1 query end to end: constant-delay enumeration agrees with the
// naive evaluation.
func TestFigure1QueryEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := logictest.MustParseCQ("Q(x1,x2,x3) :- R(x1,x2), S(x2,x3,y3), R(x1,y1), T(y3,y4,y5), S(x2,y2).")
	if !q.IsFreeConnex() {
		t.Fatalf("Figure 1 query must be free-connex")
	}
	// Relations: R binary, S ternary, T ternary. Note R and S are
	// self-joined (used twice with different arities in the paper's φ: S is
	// used as ternary and binary — we rename the binary use).
	// The paper's query uses S(x2,y2) with binary S; to stay faithful we
	// give S arity 3 and use a separate binary relation for the last atom.
	q = logictest.MustParseCQ("Q(x1,x2,x3) :- R(x1,x2), S(x2,x3,y3), R(x1,y1), T(y3,y4,y5), S2(x2,y2).")
	db := randomDB(rng, q, 4, 20)
	want := q.EvalNaive(db)

	e, err := EnumerateConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := delay.Collect(e)
	equalAnswerSets(t, "figure 1 constant delay", got, want)

	le, err := EnumerateLinearDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalAnswerSets(t, "figure 1 linear delay", delay.Collect(le), want)

	ev, err := Eval(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalAnswerSets(t, "figure 1 yannakakis", ev, want)
}

// Π(x,y) = ∃z A(x,z) ∧ B(z,y) is not free-connex: the constant-delay
// enumerator must refuse it, the linear-delay one must handle it.
func TestMatrixQueryNotConstantDelay(t *testing.T) {
	q := logictest.MustParseCQ("Pi(x,y) :- A(x,z), B(z,y).")
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	a.InsertValues(1, 5)
	a.InsertValues(2, 5)
	b := database.NewRelation("B", 2)
	b.InsertValues(5, 9)
	db.AddRelation(a)
	db.AddRelation(b)

	if _, err := EnumerateConstantDelay(db, q, nil); err == nil {
		t.Errorf("Π must be rejected by the constant-delay enumerator")
	}
	le, err := EnumerateLinearDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalAnswerSets(t, "Π linear delay", delay.Collect(le), q.EvalNaive(db))
}

func TestBooleanEnumerators(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	e.InsertValues(1, 2)
	db.AddRelation(e)
	q := logictest.MustParseCQ("B() :- E(x,y).")
	ce, err := EnumerateConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := delay.Collect(ce)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("true Boolean query: want one empty tuple, got %v", got)
	}
	qf := logictest.MustParseCQ("B() :- E(x,x).")
	ce2, err := EnumerateConstantDelay(db, qf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := delay.Collect(ce2); len(got) != 0 {
		t.Errorf("false Boolean query: want no answers, got %v", got)
	}
}

func TestEmptyRelationNoAnswers(t *testing.T) {
	db := database.NewDatabase()
	db.AddRelation(database.NewRelation("A", 2))
	b := database.NewRelation("B", 2)
	b.InsertValues(1, 2)
	db.AddRelation(b)
	q := logictest.MustParseCQ("Q(x) :- A(x,z), B(z,y).")
	e, err := EnumerateConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := delay.Collect(e); len(got) != 0 {
		t.Errorf("empty relation: want no answers, got %v", got)
	}
}

// ----- differential tests -----

func TestRandomACQDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fcCount, anyCount := 0, 0
	for trial := 0; trial < 400; trial++ {
		q := randomACQ(rng)
		db := randomDB(rng, q, 3, 8)
		if !q.IsSelfJoinFree() {
			// randomACQ names atoms uniquely, so this cannot happen; the
			// engines would still be correct.
			t.Fatalf("generator produced self-join")
		}
		want := q.EvalNaive(db)

		got, err := Eval(db, q, nil)
		if err != nil {
			t.Fatalf("trial %d: Eval(%s): %v", trial, q, err)
		}
		equalAnswerSets(t, fmt.Sprintf("trial %d yannakakis %s", trial, q), got, want)

		le, err := EnumerateLinearDelay(db, q, nil)
		if err != nil {
			t.Fatalf("trial %d: linear(%s): %v", trial, q, err)
		}
		lres := delay.Collect(le)
		equalAnswerSets(t, fmt.Sprintf("trial %d linear %s", trial, q), lres, want)
		anyCount++

		if q.IsFreeConnex() {
			fcCount++
			ce, err := EnumerateConstantDelay(db, q, nil)
			if err != nil {
				t.Fatalf("trial %d: constant(%s): %v", trial, q, err)
			}
			cres := delay.Collect(ce)
			equalAnswerSets(t, fmt.Sprintf("trial %d constant %s", trial, q), cres, want)
		}

		// Boolean decision agrees with naive on the Boolean-ified query.
		bq := &logic.CQ{Name: "B", Atoms: q.Atoms}
		ok, err := Decide(db, bq, nil)
		if err != nil {
			t.Fatalf("trial %d: decide: %v", trial, err)
		}
		if ok != bq.DecideNaive(db) {
			t.Fatalf("trial %d: decide mismatch for %s", trial, bq)
		}
	}
	if fcCount < 50 {
		t.Fatalf("too few free-connex samples: %d", fcCount)
	}
}

// No duplicates from the enumerators.
func TestEnumeratorsNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		q := randomACQ(rng)
		db := randomDB(rng, q, 3, 10)
		if !q.IsFreeConnex() {
			continue
		}
		e, err := EnumerateConstantDelay(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for {
			tup, ok := e.Next()
			if !ok {
				break
			}
			k := tup.FullKey()
			if seen[k] {
				t.Fatalf("duplicate answer %v for %s", tup, q)
			}
			seen[k] = true
		}
	}
}

// The measured per-output delay (in counted steps) of the constant-delay
// enumerator must not grow with the database, while the linear-delay
// baseline's must.
func TestConstantDelayIsConstant(t *testing.T) {
	q := logictest.MustParseCQ("Q(x,y) :- A(x,z), B(z), C(z,y).")
	// Free-connex? H+head {x,y}: A{x,z}, B{z}, C{z,y}, {x,y}: GYO: B ⊆ A;
	// then A{x,z} shared {x (head), z (C)}: not ⊆ single edge... let's
	// instead use a certainly free-connex query:
	q = logictest.MustParseCQ("Q(x,y) :- A(x,z), B(z,y).")
	if q.IsFreeConnex() {
		t.Fatalf("Π is not free-connex; test setup wrong")
	}
	q = logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	if !q.IsFreeConnex() {
		t.Fatalf("expected free-connex")
	}

	maxDelayAt := func(n int) int64 {
		db := database.NewDatabase()
		a := database.NewRelation("A", 2)
		b := database.NewRelation("B", 2)
		for i := 0; i < n; i++ {
			a.InsertValues(database.Value(i), database.Value(i+1))
			b.InsertValues(database.Value(i+1), database.Value(i%7))
		}
		db.AddRelation(a)
		db.AddRelation(b)
		c := &delay.Counter{}
		st, _ := delay.Measure(c, func() delay.Enumerator {
			e, err := EnumerateConstantDelay(db, q, c)
			if err != nil {
				t.Fatal(err)
			}
			return e
		})
		if st.Outputs == 0 {
			t.Fatalf("no outputs at n=%d", n)
		}
		return st.MaxDelaySteps
	}
	small := maxDelayAt(100)
	large := maxDelayAt(10000)
	if large > 4*small+16 {
		t.Errorf("constant-delay enumerator delay grew with n: %d -> %d", small, large)
	}
}
