package ucq

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic/logictest"
)

func sortTuples(ts []database.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func equalSets(t *testing.T, label string, got, want []database.Tuple) {
	t.Helper()
	sortTuples(got)
	sortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d answers, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: answer %d: got %v want %v", label, i, got[i], want[i])
		}
	}
}

func eq1DB(rng *rand.Rand, n int) *database.Database {
	db := database.NewDatabase()
	r1 := database.NewRelation("R1", 2)
	r2 := database.NewRelation("R2", 2)
	r3 := database.NewRelation("R3", 2)
	for i := 0; i < n; i++ {
		r1.InsertValues(database.Value(rng.Intn(6)+1), database.Value(rng.Intn(6)+1))
		r2.InsertValues(database.Value(rng.Intn(6)+1), database.Value(rng.Intn(6)+1))
		r3.InsertValues(database.Value(rng.Intn(6)+1), database.Value(rng.Intn(6)+1))
	}
	r1.Dedup()
	r2.Dedup()
	r3.Dedup()
	db.AddRelation(r1)
	db.AddRelation(r2)
	db.AddRelation(r3)
	return db
}

func TestBodyHomomorphismsEq1(t *testing.T) {
	u := Eq1Queries()
	phi1, phi2 := u.Disjuncts[0], u.Disjuncts[1]
	homs := BodyHomomorphisms(phi2, phi1)
	// The intended homomorphism x→x, y→z, w→y must be found.
	found := false
	for _, h := range homs {
		if h["x"] == "x" && h["y"] == "z" && h["w"] == "y" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected homomorphism not found among %v", homs)
	}
	// No homomorphism in the other direction (R3 has no image).
	if got := BodyHomomorphisms(phi1, phi2); len(got) != 0 {
		t.Errorf("unexpected homomorphisms φ1→φ2: %v", got)
	}
}

func TestBodyHomomorphismConstants(t *testing.T) {
	from := logictest.MustParseCQ("A(x) :- R(x, 3).")
	to1 := logictest.MustParseCQ("B(y) :- R(y, 3).")
	to2 := logictest.MustParseCQ("B(y) :- R(y, 4).")
	if len(BodyHomomorphisms(from, to1)) != 1 {
		t.Errorf("constant-preserving homomorphism missing")
	}
	if len(BodyHomomorphisms(from, to2)) != 0 {
		t.Errorf("constant mismatch must block homomorphism")
	}
}

func TestProvidedSetsEq1(t *testing.T) {
	u := Eq1Queries()
	phi1, phi2 := u.Disjuncts[0], u.Disjuncts[1]
	provs := ProvidedSets(phi2, 1, phi1)
	found := false
	for _, p := range provs {
		if len(p.Vars) == 3 && p.Vars[0] == "x" && p.Vars[1] == "y" && p.Vars[2] == "z" {
			found = true
		}
	}
	if !found {
		t.Fatalf("φ2 must provide {x,y,z} to φ1; got %v", provs)
	}
}

func TestSConnex(t *testing.T) {
	q := logictest.MustParseCQ("Q(x,y,w) :- R1(x,y), R2(y,w).")
	if !SConnex(q, []string{"x", "y", "w"}) {
		t.Errorf("free-connex query must be free-set-connex")
	}
	pi := logictest.MustParseCQ("P(x,y) :- A(x,z), B(z,y).")
	if SConnex(pi, []string{"x", "y"}) {
		t.Errorf("Π must not be {x,y}-connex")
	}
	if !SConnex(pi, []string{"x", "z"}) {
		t.Errorf("Π is {x,z}-connex")
	}
}

func TestAnalyzeEq1(t *testing.T) {
	u := Eq1Queries()
	if u.Disjuncts[0].IsFreeConnex() {
		t.Fatalf("φ1 must not be free-connex")
	}
	if !u.Disjuncts[1].IsFreeConnex() {
		t.Fatalf("φ2 must be free-connex")
	}
	plan, err := Analyze(u, 2)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// φ2 (index 1) must be resolved before φ1 (index 0).
	if len(plan.Order) != 2 || plan.Order[0] != 1 || plan.Order[1] != 0 {
		t.Errorf("order: %v", plan.Order)
	}
	if len(plan.Extensions[0]) == 0 {
		t.Errorf("φ1 must need an extension")
	}
	if len(plan.Extensions[1]) != 0 {
		t.Errorf("φ2 must need no extension")
	}
}

func TestAnalyzeRejectsHopeless(t *testing.T) {
	// Two copies of the matrix query: nothing provides anything useful.
	u := logictest.MustParseUCQ("Q(x,y) :- A(x,z), B(z,y); Q(x,y) :- C(x,z), D(z,y).")
	if _, err := Analyze(u, 2); err == nil {
		t.Errorf("union of two matrix queries must not be (detected) free-connex")
	}
}

func TestEnumerateEq1Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := Eq1Queries()
	for trial := 0; trial < 40; trial++ {
		db := eq1DB(rng, 15)
		want := u.EvalNaive(db)

		got, err := Enumerate(db, u, 2, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		equalSets(t, "generic union enumerator", delay.Collect(got), want)

		gi, err := EnumerateEq1(db, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		equalSets(t, "interleaved Eq1 enumerator", delay.Collect(gi), want)
	}
}

func TestEnumerateAllFreeConnexUnion(t *testing.T) {
	// Both disjuncts free-connex: the easy case of Section 4.2.
	u := logictest.MustParseUCQ("Q(x,y) :- A(x,y); Q(x,y) :- B(x,z), C(z), A(z,y).")
	// second: free-connex? H: A? names... B{x,z}, C{z}, A2{z,y}, head {x,y}:
	// GYO with head: C ⊆ B; B{x,z} shared {x(head), z(A2)}: not ⊆ one edge...
	// make it simpler:
	u = logictest.MustParseUCQ("Q(x,y) :- A(x,y); Q(x,y) :- B(x,y), C(y).")
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		db := database.NewDatabase()
		for _, nm := range []string{"A", "B"} {
			r := database.NewRelation(nm, 2)
			for i := 0; i < 12; i++ {
				r.InsertValues(database.Value(rng.Intn(5)+1), database.Value(rng.Intn(5)+1))
			}
			r.Dedup()
			db.AddRelation(r)
		}
		cr := database.NewRelation("C", 1)
		for i := 0; i < 3; i++ {
			cr.InsertValues(database.Value(rng.Intn(5) + 1))
		}
		cr.Dedup()
		db.AddRelation(cr)

		got, err := Enumerate(db, u, 2, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		equalSets(t, "free-connex union", delay.Collect(got), u.EvalNaive(db))
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	u := Eq1Queries()
	db := eq1DB(rng, 25)
	e, err := Enumerate(db, u, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for {
		tup, ok := e.Next()
		if !ok {
			break
		}
		k := tup.String()
		if seen[k] {
			t.Fatalf("duplicate %v", tup)
		}
		seen[k] = true
	}
}

// The interleaved Eq1 enumerator must show amortized-constant measured
// delay as the database grows.
func TestEq1DelayAmortizedConstant(t *testing.T) {
	build := func(n int) *database.Database {
		db := database.NewDatabase()
		r1 := database.NewRelation("R1", 2)
		r2 := database.NewRelation("R2", 2)
		r3 := database.NewRelation("R3", 2)
		for i := 0; i < n; i++ {
			r1.InsertValues(database.Value(i), database.Value(i))
			r2.InsertValues(database.Value(i), database.Value((i+1)%n))
			r3.InsertValues(database.Value(i), database.Value(i%5))
		}
		db.AddRelation(r1)
		db.AddRelation(r2)
		db.AddRelation(r3)
		return db
	}
	avgDelay := func(n int) float64 {
		db := build(n)
		c := &delay.Counter{}
		st, _ := delay.Measure(c, func() delay.Enumerator {
			e, err := EnumerateEq1(db, c)
			if err != nil {
				t.Fatal(err)
			}
			return e
		})
		if st.Outputs == 0 {
			t.Fatalf("no outputs at n=%d", n)
		}
		return float64(st.TotalSteps) / float64(st.Outputs)
	}
	small := avgDelay(200)
	large := avgDelay(5000)
	if large > 4*small+16 {
		t.Errorf("Eq1 amortized delay grew: %.1f -> %.1f", small, large)
	}
}
