package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

var parDegrees = []int{1, 2, 4, 8}

// treeQueryDB builds a complete-binary-tree-shaped query of the given depth
// — E1(x1,x2), E2(x1,x3), E3(x2,x4), ... — with head {x1}, over random
// relations of relSize tuples. Sibling subtrees of its join tree are where
// the parallel engine's concurrency lives.
func treeQueryDB(rng *rand.Rand, depth, relSize, domSize int) (*logic.CQ, *database.Database) {
	q := &logic.CQ{Name: "T", Head: []string{"x1"}}
	db := database.NewDatabase()
	nodes := 1<<depth - 1
	for child := 2; child <= nodes; child++ {
		parent := child / 2
		name := fmt.Sprintf("E%d", child-1)
		q.Atoms = append(q.Atoms, logic.NewAtom(name,
			fmt.Sprintf("x%d", parent), fmt.Sprintf("x%d", child)))
		r := database.NewRelation(name, 2)
		for i := 0; i < relSize; i++ {
			r.InsertValues(database.Value(rng.Intn(domSize)+1), database.Value(rng.Intn(domSize)+1))
		}
		r.Dedup()
		db.AddRelation(r)
	}
	return q, db
}

func exactSequence(t *testing.T, label string, got, want []database.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d answers, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: answer %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestParEvalMatchesEvalFixedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	queries := []string{
		"Q(x,w) :- R(x,y), S(y,z), T(z,w).",
		"Q(x,y) :- A(x,y), B(y,z).",
		"Q(x) :- R(x,y), R(y,x).",
		"Q(x,y,z) :- R(x,y), S(y,z).",
	}
	for _, qs := range queries {
		q := logictest.MustParseCQ(qs)
		db := randomDB(rng, q, 30, 200)
		want, err := Eval(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parDegrees {
			got, err := ParEval(db, q, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			exactSequence(t, fmt.Sprintf("%s par=%d", qs, p), got, want)
		}
	}
}

func TestParEvalMatchesEvalRandomACQ(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		q := randomACQ(rng)
		if len(q.Head) == 0 {
			continue
		}
		db := randomDB(rng, q, 6, 25)
		want, err := Eval(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4} {
			got, err := ParEval(db, q, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			exactSequence(t, fmt.Sprintf("trial %d par=%d", trial, p), got, want)
		}
	}
}

func TestParDecideMatchesDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		q := randomACQ(rng)
		q.Head = nil // Boolean
		db := randomDB(rng, q, 5, 10)
		want, err := Decide(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parDegrees {
			got, err := ParDecide(db, q, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d par=%d: ParDecide = %v, Decide = %v", trial, p, got, want)
			}
		}
	}
}

func TestParFullReduceMatchesFullReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := logictest.MustParseCQ("Q(x,w) :- R(x,y), S(y,z), T(z,w).")
	db := randomDB(rng, q, 40, 400)
	seq, err := BuildTree(db, q, false)
	if err != nil {
		t.Fatal(err)
	}
	okSeq := seq.FullReduce(nil)
	for _, p := range parDegrees {
		par, err := BuildTree(db, q, false)
		if err != nil {
			t.Fatal(err)
		}
		okPar := par.ParFullReduce(p, nil)
		if okPar != okSeq {
			t.Fatalf("par=%d: ParFullReduce = %v, FullReduce = %v", p, okPar, okSeq)
		}
		for i := range seq.Rels {
			exactSequence(t, fmt.Sprintf("par=%d node %d", p, i),
				par.Rels[i].R.Tuples, seq.Rels[i].R.Tuples)
		}
	}
}

// TestParStepsEqualSequential checks the engine invariant advertised in the
// docs: on a nonempty join, parallelism changes wall time but not counted
// steps — the parallel engine performs exactly the sequential engine's
// relational operations and ticks at the same points.
func TestParStepsEqualSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q, db := treeQueryDB(rng, 4, 3000, 80)
	cs := &delay.Counter{}
	want, err := Eval(db, q, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("instance produced no answers; pick a denser one")
	}
	if cs.Steps() == 0 {
		t.Fatal("sequential engine counted no steps")
	}
	for _, p := range parDegrees {
		cp := &delay.Counter{}
		got, err := ParEval(db, q, p, cp)
		if err != nil {
			t.Fatal(err)
		}
		exactSequence(t, fmt.Sprintf("par=%d answers", p), got, want)
		if cp.Steps() != cs.Steps() {
			t.Errorf("par=%d: counted %d steps, sequential counted %d", p, cp.Steps(), cs.Steps())
		}
	}
}

// TestParEvalDeterministic runs the parallel engine repeatedly and demands
// the identical answer sequence every time, whatever the scheduling.
func TestParEvalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, db := treeQueryDB(rng, 3, 800, 40)
	first, err := ParEval(db, q, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		again, err := ParEval(db, q, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		exactSequence(t, fmt.Sprintf("round %d", round), again, first)
	}
}

func TestParEvalEmptyJoin(t *testing.T) {
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	a.InsertValues(1, 2)
	b := database.NewRelation("B", 2)
	b.InsertValues(9, 9) // no y overlap: join is empty
	db.AddRelation(a)
	db.AddRelation(b)
	for _, p := range parDegrees {
		got, err := ParEval(db, q, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("par=%d: want no answers, got %v", p, got)
		}
		ok, err := ParDecide(db, &logic.CQ{Name: "B", Atoms: q.Atoms}, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("par=%d: ParDecide true on empty join", p)
		}
	}
}

func TestParEvalErrors(t *testing.T) {
	cyc := logictest.MustParseCQ("Q(x) :- R(x,y), S(y,z), T(z,x).")
	db := database.NewDatabase()
	if _, err := ParEval(db, cyc, 4, nil); err == nil {
		t.Error("ParEval accepted a cyclic query")
	}
	if _, err := ParDecide(db, cyc, 4, nil); err == nil {
		t.Error("ParDecide accepted a cyclic query")
	}
	q := logictest.MustParseCQ("Q(x) :- Missing(x,y).")
	if _, err := ParEval(db, q, 4, nil); err == nil {
		t.Error("ParEval accepted an unknown relation")
	}
}

func TestParallelismDefault(t *testing.T) {
	if Parallelism(0) < 1 || Parallelism(-3) < 1 {
		t.Error("Parallelism must default to at least one worker")
	}
	if Parallelism(5) != 5 {
		t.Error("explicit degree must be kept")
	}
}
