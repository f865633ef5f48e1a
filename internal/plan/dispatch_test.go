package plan_test

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/plan"
)

func TestAnalyzeVerdicts(t *testing.T) {
	cases := []struct {
		src        string
		acyclic    bool
		freeConnex bool
		starSize   int
		enumHint   string
	}{
		{"Q(x,y) :- A(x,y), B(y,z).", true, true, 1, "Constant-Delay"},
		{"Q(x,y) :- A(x,z), B(z,y).", true, false, 2, "linear delay"},
		{"Q() :- E(x,y), F(y,z), G(z,x).", false, false, 0, "Hyperclique"},
		{"Q() :- E(x,y), E(y,z), E(z,x).", false, false, 0, "classification open"},
	}
	for _, c := range cases {
		r := plan.Analyze(logictest.MustParseCQ(c.src))
		if r.Acyclic != c.acyclic || r.FreeConnex != c.freeConnex {
			t.Errorf("%s: acyclic=%v freeConnex=%v", c.src, r.Acyclic, r.FreeConnex)
		}
		if c.acyclic && r.StarSize != c.starSize {
			t.Errorf("%s: star size %d, want %d", c.src, r.StarSize, c.starSize)
		}
		if !strings.Contains(r.EnumerationVerdict, c.enumHint) {
			t.Errorf("%s: enumeration verdict %q lacks %q", c.src, r.EnumerationVerdict, c.enumHint)
		}
		if r.String() == "" {
			t.Errorf("empty report")
		}
	}
	// Order comparisons and negation verdicts.
	r := plan.Analyze(logictest.MustParseCQ("Q(x) :- E(x,y), x < y."))
	if !r.HasOrder || !strings.Contains(r.DecisionVerdict, "W[1]") {
		t.Errorf("order verdict: %+v", r.DecisionVerdict)
	}
	rn := plan.Analyze(logictest.MustParseCQ("Q() :- !R(x,y), !S(y,z)."))
	if !rn.HasNegation || !strings.Contains(rn.DecisionVerdict, "quasi-linear") {
		t.Errorf("negation verdict: %+v", rn.DecisionVerdict)
	}
}

func randomDB(rng *rand.Rand, q *logic.CQ) *database.Database {
	db := database.NewDatabase()
	add := func(pred string, arity int) {
		if db.Relation(pred) != nil {
			return
		}
		r := database.NewRelation(pred, arity)
		for i := 0; i < 10; i++ {
			tp := make(database.Tuple, arity)
			for j := range tp {
				tp[j] = database.Value(rng.Intn(4) + 1)
			}
			r.Insert(tp)
		}
		r.Dedup()
		db.AddRelation(r)
	}
	for _, a := range q.Atoms {
		add(a.Pred, len(a.Args))
	}
	for _, a := range q.NegAtoms {
		add(a.Pred, len(a.Args))
	}
	return db
}

// execute compiles q, binds it to db, and runs all three tasks on the one
// Prepared.
func execute(t *testing.T, db *database.Database, q *logic.CQ) (answers []database.Tuple, count *big.Int, ok bool) {
	t.Helper()
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatalf("%s: compile: %v", q, err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatalf("%s: bind: %v", q, err)
	}
	e, err := pr.Enumerate(nil)
	if err != nil {
		t.Fatalf("%s: enumerate: %v", q, err)
	}
	if count, err = pr.Count(nil); err != nil {
		t.Fatalf("%s: count: %v", q, err)
	}
	if ok, err = pr.Decide(nil); err != nil {
		t.Fatalf("%s: decide: %v", q, err)
	}
	return delay.Collect(e), count, ok
}

// checkAgainstNaive runs q's three tasks through the pipeline and compares
// each with the naive evaluator.
func checkAgainstNaive(t *testing.T, trial int, db *database.Database, q *logic.CQ) {
	t.Helper()
	want := q.EvalNaive(db)
	res, cnt, ok := execute(t, db, q)
	if len(res) != len(want) {
		t.Fatalf("trial %d %s: %d answers, want %d", trial, q, len(res), len(want))
	}
	if cnt.Cmp(big.NewInt(int64(len(want)))) != 0 {
		t.Fatalf("trial %d %s: count %s, want %d", trial, q, cnt, len(want))
	}
	bq := &logic.CQ{Atoms: q.Atoms, NegAtoms: q.NegAtoms, Comparisons: q.Comparisons}
	if ok != bq.DecideNaive(db) {
		t.Fatalf("trial %d %s: decide mismatch", trial, q)
	}
}

func TestDispatchAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := []string{
		"Q(x,y) :- A(x,y), B(y,z).",         // free-connex
		"Q(x,y) :- A(x,z), B(z,y).",         // acyclic, not free-connex
		"Q(x) :- A(x,y), B(y,x).",           // cyclic? A{x,y} B{y,x}: same edge set {x,y}: acyclic
		"Q(x,y) :- A(x,y), B(y,z), x != y.", // diseq free-connex
		"Q(x) :- A(x,y), x < y.",            // order: backtracking
		"Q() :- A(x,y), B(y,z), C(z,x).",    // cyclic Boolean
	}
	for trial := 0; trial < 30; trial++ {
		for _, src := range queries {
			q := logictest.MustParseCQ(src)
			checkAgainstNaive(t, trial, randomDB(rng, q), q)
		}
	}
}

func TestDecideNCQ(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := logictest.MustParseCQ("Q() :- !R(x,y), !S(y,z).")
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, q)
		_, _, got := execute(t, db, q)
		if got != q.DecideNaive(db) {
			t.Fatalf("trial %d: NCQ decide mismatch", trial)
		}
	}
}

// Signed queries (mixed positive and negative atoms) are handled by the
// generic engine across all three tasks.
func TestSignedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	queries := []string{
		"Q(x) :- R(x,y), !S(y,x).",
		"Q(x,y) :- R(x,y), !S(x,x).",
		"Q() :- R(x,y), !S(y,z).",
		"Q(x) :- !R(x,y), S(y,x), x != y.",
	}
	for trial := 0; trial < 25; trial++ {
		for _, src := range queries {
			q := logictest.MustParseCQ(src)
			checkAgainstNaive(t, trial, randomDB(rng, q), q)
		}
	}
}
