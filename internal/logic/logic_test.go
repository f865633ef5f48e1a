package logic

import (
	"math/rand"
	"testing"

	"repro/internal/database"
)

// smallGraph returns a database with E = edges of a 5-cycle plus a chord,
// and a unary predicate B = {1,3}.
func smallGraph() *database.Database {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	for _, p := range [][2]database.Value{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}, {1, 3}} {
		e.InsertValues(p[0], p[1])
	}
	db.AddRelation(e)
	b := database.NewRelation("B", 1)
	b.InsertValues(1)
	b.InsertValues(3)
	db.AddRelation(b)
	return db
}

func TestParseCQBasics(t *testing.T) {
	q := MustParseCQ("Q(x,y) :- E(x,z), E(z,y), x != y, z < 4.")
	if q.Name != "Q" || len(q.Head) != 2 || len(q.Atoms) != 2 || len(q.Comparisons) != 2 {
		t.Fatalf("parse structure wrong: %s", q)
	}
	if got := q.Vars(); len(got) != 3 {
		t.Errorf("vars: %v", got)
	}
	if got := q.ExistentialVars(); len(got) != 1 || got[0] != "z" {
		t.Errorf("existential vars: %v", got)
	}
	if q.IsBoolean() {
		t.Errorf("binary query reported Boolean")
	}
	if q.IsSelfJoinFree() {
		// E occurs twice: not self-join free.
		t.Errorf("E twice must NOT be self-join free")
	}
}

func TestSelfJoinFree(t *testing.T) {
	q := MustParseCQ("Q(x) :- R(x,y), S(y).")
	if !q.IsSelfJoinFree() {
		t.Errorf("distinct predicates should be self-join free")
	}
	q2 := MustParseCQ("Q(x) :- R(x,y), R(y,x).")
	if q2.IsSelfJoinFree() {
		t.Errorf("repeated predicate should not be self-join free")
	}
}

func TestParseNegAtomsAndConstants(t *testing.T) {
	q := MustParseCQ("Q(x) :- R(x, 7), !S(x).")
	if len(q.Atoms) != 1 || len(q.NegAtoms) != 1 {
		t.Fatalf("neg parse wrong: %s", q)
	}
	if !q.Atoms[0].Args[1].IsConst || q.Atoms[0].Args[1].Const != 7 {
		t.Errorf("constant parse wrong")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"Q(x) :- ",
		"Q(x :- R(x).",
		"(x) :- R(x).",
		"Q(x) :- R(x) S(x).",
		"Q(x) :- x ! y.",
		"Q(x) :- R(x). extra",
	} {
		if _, err := ParseCQ(src); err == nil {
			t.Errorf("ParseCQ(%q) should fail", src)
		}
	}
	for _, src := range []string{
		"exists . E(x,y)",
		"exists x E(x,y)",
		"E(x,",
		"x in",
		"(E(x,y)",
		"E(x,y) and",
	} {
		if _, err := ParseFormula(src); err == nil {
			t.Errorf("ParseFormula(%q) should fail", src)
		}
	}
}

func TestEvalNaivePathQuery(t *testing.T) {
	db := smallGraph()
	q := MustParseCQ("Q(x,y) :- E(x,z), E(z,y).")
	res := q.EvalNaive(db)
	// Check a few expected two-step paths.
	want := map[string]bool{
		database.Tuple{1, 3}.String(): true, // 1→2→3
		database.Tuple{2, 4}.String(): true, // 2→3→4
	}
	found := 0
	for _, r := range res {
		if want[r.String()] {
			found++
		}
	}
	if found != 2 {
		t.Errorf("missing expected paths in %v", res)
	}
	if q.CountNaive(db) != len(res) {
		t.Errorf("CountNaive inconsistent")
	}
}

func TestDecideNaiveTriangle(t *testing.T) {
	db := smallGraph()
	// Triangle 1→2→3→1: E(1,2), E(2,3), and E(3,?1)... E(3,4) no; but
	// E(1,3) exists so triangle x=1,y=2? needs E(3,1): absent. Directed
	// triangle via 1→3? E(1,3), E(3,4)... Check 5-cycle chord: 5→1→3? needs E(3,5) absent.
	tri := MustParseCQ("T() :- E(x,y), E(y,z), E(z,x).")
	if tri.DecideNaive(db) {
		t.Errorf("no directed triangle expected")
	}
	// Add E(3,1): now 1→2→3→1 closes.
	db.Relation("E").InsertValues(3, 1)
	if !tri.DecideNaive(db) {
		t.Errorf("directed triangle expected after adding E(3,1)")
	}
}

func TestComparisonsAndNegationInEval(t *testing.T) {
	db := smallGraph()
	q := MustParseCQ("Q(x,y) :- E(x,y), x < y.")
	for _, r := range q.EvalNaive(db) {
		if r[0] >= r[1] {
			t.Errorf("comparison violated: %v", r)
		}
	}
	qn := MustParseCQ("Q(x) :- E(x,y), !B(x).")
	for _, r := range qn.EvalNaive(db) {
		if r[0] == 1 || r[0] == 3 {
			t.Errorf("negation violated: %v", r)
		}
	}
}

func TestUCQParseAndEval(t *testing.T) {
	u := MustParseUCQ("Q(x) :- B(x); Q(x) :- E(x,y), E(y,x).")
	if len(u.Disjuncts) != 2 || u.Arity() != 1 {
		t.Fatalf("UCQ parse wrong: %s", u)
	}
	db := smallGraph()
	res := u.EvalNaive(db)
	// B = {1,3}; no symmetric edge pairs in smallGraph.
	if len(res) != 2 {
		t.Errorf("UCQ eval: want 2 answers, got %v", res)
	}
	if _, err := ParseUCQ("Q(x) :- B(x); Q(x,y) :- E(x,y)."); err == nil {
		t.Errorf("mixed arities must be rejected")
	}
}

func TestCQStringRoundTrip(t *testing.T) {
	src := "Q(x,y) :- E(x,z), S(z,y), !T(z), x != y."
	q := MustParseCQ(src)
	q2 := MustParseCQ(q.String())
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
}

func TestFormulaParseEvalBasics(t *testing.T) {
	db := smallGraph()
	cases := []struct {
		src  string
		want bool
	}{
		{"exists x. B(x)", true},
		{"forall x. B(x)", false},
		{"exists x,y. (E(x,y) and E(y,x))", false},
		{"exists x. (B(x) and exists y. E(x,y))", true},
		{"forall x. (B(x) -> exists y. E(x,y))", true},
		{"exists x. x = 3", true},
		{"exists x. (x < 1 or x = 1)", true},
		{"not exists x. E(x,x)", true},
		{"true", true},
		{"false", false},
		{"exists set X. forall x. (B(x) -> x in X)", true},
		{"forall set X. exists x. x in X", false}, // empty set fails
	}
	for _, c := range cases {
		f := MustParseFormula(c.src)
		if got := Eval(db, f, Interpretation{}); got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestFreeVarsAndSetVars(t *testing.T) {
	f := MustParseFormula("exists y. (E(x,y) and y in X and forall z. z in Y)")
	if got := FreeVars(f); len(got) != 1 || got[0] != "x" {
		t.Errorf("FreeVars = %v", got)
	}
	sv := FreeSetVars(f)
	if len(sv) != 2 || sv[0] != "X" || sv[1] != "Y" {
		t.Errorf("FreeSetVars = %v", sv)
	}
	g := MustParseFormula("exists set X. x in X")
	if got := FreeSetVars(g); len(got) != 0 {
		t.Errorf("bound set var leaked: %v", got)
	}
}

func TestQuantifierRankAndSize(t *testing.T) {
	f := MustParseFormula("exists x. (E(x,y) and forall z. exists w. E(z,w))")
	if got := QuantifierRank(f); got != 3 {
		t.Errorf("rank = %d, want 3", got)
	}
	if Size(f) <= 0 {
		t.Errorf("size must be positive")
	}
}

func TestEvalFOFreeVariables(t *testing.T) {
	db := smallGraph()
	f := MustParseFormula("exists y. (E(x,y) and B(y))")
	res := EvalFO(db, f, []string{"x"})
	// x with an edge into B={1,3}: E(2,3), E(1,3)→x=1? E(1,3) yes so x=1;
	// E(2,3)→x=2; E(5,1)→x=5; E(4,5)? 5∉B. x∈{1,2,5}... also E(1,2)? 2∉B.
	want := map[database.Value]bool{1: true, 2: true, 5: true}
	if len(res) != len(want) {
		t.Fatalf("EvalFO: got %v", res)
	}
	for _, r := range res {
		if !want[r[0]] {
			t.Errorf("unexpected answer %v", r)
		}
	}
}

func TestCountMixed(t *testing.T) {
	db := database.NewDatabase()
	u := database.NewRelation("U", 1)
	u.InsertValues(1)
	u.InsertValues(2)
	db.AddRelation(u)
	// |{(X) : X ⊆ {1,2} and forall x (x in X -> U(x))}| = all 4 subsets.
	f := MustParseFormula("forall x. (x in X -> U(x))")
	if got := CountMixed(db, f); got != 4 {
		t.Errorf("CountMixed = %d, want 4", got)
	}
	// Pairs (x, X) with x in X: sum over x of 2^(n-1) = 2·2 = 4.
	g := MustParseFormula("x in X")
	if got := CountMixed(db, g); got != 4 {
		t.Errorf("CountMixed member = %d, want 4", got)
	}
}

// CQToFormula must agree with the naive CQ evaluator.
func TestCQToFormulaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	queries := []*CQ{
		MustParseCQ("Q(x,y) :- E(x,z), E(z,y)."),
		MustParseCQ("Q(x) :- E(x,y), B(y), x != y."),
		MustParseCQ("Q(x) :- E(x,y), !B(y)."),
		MustParseCQ("Q() :- E(x,y), E(y,z), E(z,x)."),
	}
	for trial := 0; trial < 30; trial++ {
		db := database.NewDatabase()
		e := database.NewRelation("E", 2)
		for i := 0; i < 8; i++ {
			e.InsertValues(database.Value(rng.Intn(4)+1), database.Value(rng.Intn(4)+1))
		}
		e.Dedup()
		db.AddRelation(e)
		b := database.NewRelation("B", 1)
		for i := 0; i < 2; i++ {
			b.InsertValues(database.Value(rng.Intn(4) + 1))
		}
		b.Dedup()
		db.AddRelation(b)

		for _, q := range queries {
			f := CQToFormula(q)
			got := EvalFO(db, f, q.Head)
			want := q.EvalNaive(db)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: formula %d answers, naive %d", trial, q, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d %s: mismatch %v vs %v", trial, q, got[i], want[i])
				}
			}
		}
	}
}

func TestHypergraphConstruction(t *testing.T) {
	q := MustParseCQ("Q(x,y) :- E(x,z), E(z,y).")
	h := q.Hypergraph()
	if len(h.Edges) != 2 {
		t.Fatalf("hypergraph edges: %v", h.Edges)
	}
	if !q.IsAcyclic() {
		t.Errorf("path query must be acyclic")
	}
	if q.IsFreeConnex() {
		t.Errorf("Π-shaped query must not be free-connex")
	}
	if got := q.QuantifiedStarSize(); got != 2 {
		t.Errorf("star size of Π = %d, want 2", got)
	}
	tri := MustParseCQ("Q() :- E(x,y), E(y,z), E(z,x).")
	if tri.IsAcyclic() {
		t.Errorf("triangle must be cyclic")
	}
	// Head variable not occurring in any atom becomes an isolated vertex.
	iso := MustParseCQ("Q(x,w) :- E(x,y).")
	vs := iso.Hypergraph().Vertices()
	found := false
	for _, v := range vs {
		if v == "w" {
			found = true
		}
	}
	if !found {
		t.Errorf("isolated head variable missing from hypergraph: %v", vs)
	}
}

func TestCQSize(t *testing.T) {
	q := MustParseCQ("Q(x,y) :- E(x,z), S(z,y), x != y.")
	if q.Size() <= 0 {
		t.Errorf("size must be positive")
	}
	q2 := MustParseCQ("Q(x,y) :- E(x,z), S(z,y), T(x,y,z), x != y.")
	if q2.Size() <= q.Size() {
		t.Errorf("bigger query must have bigger size")
	}
}

func TestNormalizeSpaces(t *testing.T) {
	if normalizeSpaces("  a   b\nc ") != "a b c" {
		t.Errorf("normalizeSpaces broken")
	}
}

func TestFormulaStrings(t *testing.T) {
	for _, src := range []string{
		"exists x. (E(x,y) and not x = y)",
		"forall set X. (x in X or B(x))",
		"exists x. (E(x,x) or x != 3)",
	} {
		f := MustParseFormula(src)
		// The printed form must re-parse to something that prints the same.
		g := MustParseFormula(f.String())
		if f.String() != g.String() {
			t.Errorf("print/reparse unstable: %q vs %q", f.String(), g.String())
		}
	}
}
