package counting

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/graphs"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

func TestSemiringLaws(t *testing.T) {
	rings := []Semiring{BigInt{}, Float64{}, NewGF(101), Rational{}}
	for _, s := range rings {
		two := s.Add(s.One(), s.One())
		three := s.Add(two, s.One())
		// distributivity: (1+1)·3 = 3+3
		l := s.Mul(two, three)
		r := s.Add(three, three)
		if !s.Eq(l, r) {
			t.Errorf("%T: distributivity failed: %s vs %s", s, s.String(l), s.String(r))
		}
		if !s.Eq(s.Mul(s.Zero(), three), s.Zero()) {
			t.Errorf("%T: 0·x != 0", s)
		}
		if !s.Eq(s.Mul(s.One(), three), three) {
			t.Errorf("%T: 1·x != x", s)
		}
		if s.String(three) == "" {
			t.Errorf("%T: empty string rendering", s)
		}
	}
}

func TestGFWrapsAround(t *testing.T) {
	f := NewGF(5)
	four := f.Add(f.Add(f.One(), f.One()), f.Add(f.One(), f.One()))
	if !f.Eq(f.Add(four, f.One()), f.Zero()) {
		t.Errorf("4+1 != 0 mod 5")
	}
}

func TestCountQuantifierFreeSimple(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	for _, p := range [][2]database.Value{{1, 2}, {2, 3}, {3, 4}, {2, 4}} {
		e.InsertValues(p[0], p[1])
	}
	db.AddRelation(e)
	q := logictest.MustParseCQ("Q(x,y,z) :- E(x,y), E(y,z).")
	s := BigInt{}
	got, err := CountQuantifierFree(db, q, UnitWeight(s), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := big.NewInt(int64(q.CountNaive(db)))
	if !s.Eq(got, want) {
		t.Errorf("count = %s, want %s", s.String(got), want)
	}
	// Rejects projected queries.
	if _, err := CountQuantifierFree(db, logictest.MustParseCQ("Q(x) :- E(x,y)."), UnitWeight(s), s, nil); err == nil {
		t.Errorf("projection must be rejected by the quantifier-free counter")
	}
}

func TestCountWeighted(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	e.InsertValues(1, 2)
	e.InsertValues(1, 3)
	db.AddRelation(e)
	q := logictest.MustParseCQ("Q(x,y) :- E(x,y).")
	s := Float64{}
	w := func(v database.Value) interface{} { return float64(v) }
	got, err := CountQuantifierFree(db, q, w, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// w(1)w(2) + w(1)w(3) = 2 + 3 = 5.
	if !s.Eq(got, float64(5)) {
		t.Errorf("weighted count = %v, want 5", got)
	}
}

// naiveWeighted computes the weighted count by enumerating naive answers.
func naiveWeighted(db *database.Database, q *logic.CQ, w Weight, s Semiring) interface{} {
	total := s.Zero()
	for _, t := range q.EvalNaive(db) {
		v := s.One()
		for _, x := range t {
			v = s.Mul(v, w(x))
		}
		total = s.Add(total, v)
	}
	return total
}

func randomDB(rng *rand.Rand, q *logic.CQ, domSize, relSize int) *database.Database {
	db := database.NewDatabase()
	for _, a := range q.Atoms {
		if db.Relation(a.Pred) != nil {
			continue
		}
		r := database.NewRelation(a.Pred, len(a.Args))
		for i := 0; i < relSize; i++ {
			tp := make(database.Tuple, len(a.Args))
			for j := range tp {
				tp[j] = database.Value(rng.Intn(domSize) + 1)
			}
			r.Insert(tp)
		}
		r.Dedup()
		db.AddRelation(r)
	}
	return db
}

func randomACQ(rng *rand.Rand) *logic.CQ {
	numAtoms := 1 + rng.Intn(4)
	var atoms []logic.Atom
	varCount := 0
	fresh := func() string { varCount++; return fmt.Sprintf("v%d", varCount) }
	for i := 0; i < numAtoms; i++ {
		var vars []string
		if i > 0 {
			prev := atoms[rng.Intn(len(atoms))]
			for _, v := range prev.Vars() {
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
	for _, v := range q.Vars() {
		if rng.Intn(2) == 0 {
			q.Head = append(q.Head, v)
		}
	}
	return q
}

// The star-size counting algorithm must agree with brute force on random
// acyclic queries, over three different (semi)fields.
func TestCountDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bi := BigInt{}
	gf := NewGF(97)
	ra := Rational{}
	for trial := 0; trial < 250; trial++ {
		q := randomACQ(rng)
		db := randomDB(rng, q, 3, 8)

		got, err := Count(db, q, UnitWeight(bi), bi, nil)
		if err != nil {
			t.Fatalf("trial %d: Count(%s): %v", trial, q, err)
		}
		want := big.NewInt(int64(q.CountNaive(db)))
		if !bi.Eq(got, want) {
			t.Fatalf("trial %d: Count(%s) = %s, want %s", trial, q, bi.String(got), want)
		}

		// Weighted, over GF(97): weight v ↦ v mod 97.
		wgf := func(v database.Value) interface{} { return uint64(v) % 97 }
		gotGF, err := Count(db, q, wgf, gf, nil)
		if err != nil {
			t.Fatalf("trial %d: Count GF: %v", trial, err)
		}
		wantGF := naiveWeighted(db, q, wgf, gf)
		if !gf.Eq(gotGF, wantGF) {
			t.Fatalf("trial %d: GF count mismatch for %s: %s vs %s", trial, q, gf.String(gotGF), gf.String(wantGF))
		}

		// Weighted over ℚ: weight v ↦ 1/v.
		wra := func(v database.Value) interface{} { return big.NewRat(1, int64(v)) }
		gotRa, err := Count(db, q, wra, ra, nil)
		if err != nil {
			t.Fatalf("trial %d: Count Rat: %v", trial, err)
		}
		wantRa := naiveWeighted(db, q, wra, ra)
		if !ra.Eq(gotRa, wantRa) {
			t.Fatalf("trial %d: ℚ count mismatch for %s: %s vs %s", trial, q, ra.String(gotRa), ra.String(wantRa))
		}
	}
}

func TestCountBooleanAndErrors(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	e.InsertValues(1, 2)
	db.AddRelation(e)
	s := BigInt{}
	got, err := Count(db, logictest.MustParseCQ("B() :- E(x,y)."), UnitWeight(s), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Eq(got, big.NewInt(1)) {
		t.Errorf("true Boolean count = %s, want 1", s.String(got))
	}
	got, err = Count(db, logictest.MustParseCQ("B() :- E(x,x)."), UnitWeight(s), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Eq(got, big.NewInt(0)) {
		t.Errorf("false Boolean count = %s, want 0", s.String(got))
	}
	if _, err := Count(db, logictest.MustParseCQ("Q() :- E(x,y), E(y,z), E(z,x)."), UnitWeight(s), s, nil); err == nil {
		t.Errorf("cyclic query must be rejected")
	}
	if _, err := Count(db, logictest.MustParseCQ("Q(x) :- E(x,y), x != y."), UnitWeight(s), s, nil); err == nil {
		t.Errorf("comparisons must be rejected")
	}
	if _, err := Count(db, logictest.MustParseCQ("Q(w) :- E(x,y)."), UnitWeight(s), s, nil); err == nil {
		t.Errorf("unsafe query must be rejected")
	}
}

func TestCountIntString(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	e.InsertValues(1, 2)
	e.InsertValues(1, 3)
	db.AddRelation(e)
	s := BigInt{}
	v, err := Count(db, logictest.MustParseCQ("Q(x) :- E(x,y)."), UnitWeight(s), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(v); got != "1" {
		t.Errorf("Count = %s, want 1", got)
	}
}

// E12: the Equation 2 identity #PM = |φ| − |ψ| against Ryser's permanent.
func TestPerfectMatchingsViaACQ(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	// Deterministic cases first.
	k22 := [][]bool{{true, true}, {true, true}}
	got, err := PerfectMatchingsViaACQ(k22)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("K22 matchings = %s, want 2", got)
	}
	// Identity matrix: exactly one matching.
	id3 := [][]bool{{true, false, false}, {false, true, false}, {false, false, true}}
	got, err = PerfectMatchingsViaACQ(id3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("I3 matchings = %s, want 1", got)
	}
	// Random graphs n = 1..5.
	for n := 1; n <= 5; n++ {
		for trial := 0; trial < 5; trial++ {
			adj := make([][]bool, n)
			for i := range adj {
				adj[i] = make([]bool, n)
				for j := range adj[i] {
					adj[i][j] = rng.Intn(2) == 0
				}
			}
			got, err := PerfectMatchingsViaACQ(adj)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			want := Permanent(adj)
			if got.Cmp(want) != 0 {
				t.Fatalf("n=%d adj=%v: ACQ count %s, permanent %s", n, adj, got, want)
			}
		}
	}
}

func TestPermanentEdgeCases(t *testing.T) {
	if Permanent(nil).Cmp(big.NewInt(1)) != 0 {
		t.Errorf("empty permanent must be 1")
	}
	if got, err := PerfectMatchingsViaACQ(nil); err != nil || got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("empty graph matchings: %v, %v", got, err)
	}
	none := [][]bool{{false}}
	if Permanent(none).Sign() != 0 {
		t.Errorf("edgeless permanent must be 0")
	}
	got, err := PerfectMatchingsViaACQ(none)
	if err != nil || got.Sign() != 0 {
		t.Errorf("edgeless matchings: %v, %v", got, err)
	}
}

// The ψ query of Equation 2 has quantified star size n.
func TestMatchingQueryStarSize(t *testing.T) {
	for n := 2; n <= 4; n++ {
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			for j := range adj[i] {
				adj[i][j] = true
			}
		}
		_, _, psi := MatchingQueries(adj)
		if got := psi.QuantifiedStarSize(); got != n {
			t.Errorf("n=%d: ψ star size = %d, want %d", n, got, n)
		}
	}
}

// CountFullJoin input validation.
func TestCountFullJoinValidation(t *testing.T) {
	s := BigInt{}
	if _, err := CountFullJoin(nil, nil, UnitWeight(s), s, nil); err == nil {
		t.Errorf("no relations must fail")
	}
	r := database.NewRelation("R", 1)
	r.InsertValues(1)
	rel := cq.Rel{Schema: []string{"x"}, R: r}
	if _, err := CountFullJoin([]cq.Rel{rel}, []string{"x", "y"}, UnitWeight(s), s, nil); err == nil {
		t.Errorf("uncovered variable must fail")
	}
	if _, err := CountFullJoin([]cq.Rel{rel}, []string{"y"}, UnitWeight(s), s, nil); err == nil {
		t.Errorf("extraneous schema variable must fail")
	}
	// Cyclic schemas must fail.
	mk := func(name string, vs ...string) cq.Rel {
		rr := database.NewRelation(name, len(vs))
		return cq.Rel{Schema: vs, R: rr}
	}
	if _, err := CountFullJoin([]cq.Rel{mk("A", "a", "b"), mk("B", "b", "c"), mk("C", "c", "a")},
		[]string{"a", "b", "c"}, UnitWeight(s), s, nil); err == nil {
		t.Errorf("cyclic join must fail")
	}
}

// Counting must be deterministic run-to-run: no map-iteration order may
// leak into the total (the root sum iterates in sorted key order).
func TestCountDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := logictest.MustParseCQ("Q(x,y) :- R(x,y), S(y,z).")
	db := database.NewDatabase()
	db.AddRelation(graphs.RandomRelation(rng, "R", 2, 500, 60))
	db.AddRelation(graphs.RandomRelation(rng, "S", 2, 500, 60))
	s := BigInt{}
	first, err := Count(db, q, UnitWeight(s), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		again, err := Count(db, q, UnitWeight(s), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.String(first) != s.String(again) {
			t.Fatalf("round %d: count %s != %s", round, s.String(again), s.String(first))
		}
	}
}
