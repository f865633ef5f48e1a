package ineq

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

// ----- covers machinery (Definitions 4.16–4.19) -----

// example419 is the table of Example 4.19 (rows a..f, functions f1..f4).
func example419() Table {
	return Table{K: 4, Rows: []database.Tuple{
		{1, 2, 4, 5}, // a
		{1, 5, 1, 5}, // b
		{3, 2, 4, 5}, // c
		{3, 5, 3, 5}, // d
		{5, 2, 4, 5}, // e
		{2, 2, 4, 5}, // f
	}}
}

func TestExample419MinimalCovers(t *testing.T) {
	tb := example419()
	got := tb.MinimalCovers()
	want := []database.Tuple{
		{1, 2, 3, Blank},
		{3, 2, 1, Blank},
		{Blank, 5, 4, Blank},
		{Blank, Blank, Blank, 5},
	}
	// Hmm: the paper's minimal covers are {(1,2,3,⊔),(3,2,1,⊔),(⊔,5,4,⊔),(⊔,⊔,⊔,5)}.
	if len(got) != 4 {
		t.Fatalf("minimal covers: want 4, got %d: %v", len(got), renderCovers(got))
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("minimal cover %d: got %s want %s\nall: %v", i, CoverString(got[i]), CoverString(want[i]), renderCovers(got))
		}
	}
}

func renderCovers(cs []Cover) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = CoverString(c)
	}
	return out
}

func TestExample419CoverCount(t *testing.T) {
	// The paper's Example 4.19 gives a "rough count" of 64 covers via the
	// families (1,2,3,*), (1,5,4,*), (3,2,1,*), (⊔,5,4,*), (*,*,*,5).
	// Exhaustive enumeration additionally finds the three non-minimal
	// covers (2,5,4,⊔), (3,5,4,⊔), (5,5,4,⊔) — instances of (⊔,5,4,⊔) with
	// the first slot filled — which those families omit, for 67 in total.
	// The quantity the theory relies on, the minimal cover set, matches
	// the paper exactly (TestExample419MinimalCovers).
	tb := example419()
	got := tb.AllCovers()
	if len(got) != 67 {
		t.Errorf("covers: want 67, got %d", len(got))
	}
	extras := map[string]bool{}
	for _, c := range got {
		extras[CoverString(c)] = true
	}
	for _, want := range []string{"(2,5,4,⊔)", "(3,5,4,⊔)", "(5,5,4,⊔)"} {
		if !extras[want] {
			t.Errorf("expected cover %s missing", want)
		}
	}
}

func TestExample419RepresentativeSet(t *testing.T) {
	tb := example419()
	rep := tb.RepresentativeSet()
	// The paper gives {a,b,c,d} as a representative set; ours may pick a
	// different one but must satisfy covers(E,f) = covers(R,f).
	repTable := Table{K: tb.K, Rows: rep}
	if !sameCovers(tb, repTable) {
		t.Fatalf("representative set does not preserve covers: %v", rep)
	}
	// And the paper's own {a,b,c,d} must also be representative.
	paper := Table{K: tb.K, Rows: tb.Rows[:4]}
	if !sameCovers(tb, paper) {
		t.Errorf("the paper's representative set {a,b,c,d} fails")
	}
}

// sameCovers compares cover sets over a common value domain (the union of
// both tables' column values), since a vector using a value absent from a
// table behaves there like a blank.
func sameCovers(a, b Table) bool {
	dom := a.ColumnValues()
	bdom := b.ColumnValues()
	for i := range dom {
		seen := map[database.Value]bool{}
		for _, v := range dom[i] {
			seen[v] = true
		}
		for _, v := range bdom[i] {
			if !seen[v] {
				dom[i] = append(dom[i], v)
			}
		}
	}
	ca, cb := a.AllCoversOver(dom), b.AllCoversOver(dom)
	if len(ca) != len(cb) {
		return false
	}
	keys := map[string]bool{}
	for _, c := range ca {
		keys[c.String()] = true
	}
	for _, c := range cb {
		if !keys[c.String()] {
			return false
		}
	}
	return true
}

func TestMoreGeneral(t *testing.T) {
	cPrime := Cover{2, 1, Blank}
	c := Cover{2, 1, 1}
	if !MoreGeneral(cPrime, c) {
		t.Errorf("Example 4.18: (2,1,⊔) must be more general than (2,1,1)")
	}
	if MoreGeneral(c, cPrime) {
		t.Errorf("(2,1,1) must not be more general than (2,1,⊔)")
	}
}

func randomTable(rng *rand.Rand) Table {
	k := 1 + rng.Intn(3)
	n := 1 + rng.Intn(6)
	tb := Table{K: k}
	for i := 0; i < n; i++ {
		row := make(database.Tuple, k)
		for j := range row {
			row[j] = database.Value(rng.Intn(3) + 1)
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

func TestMinimalCoversAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	fact := []int{1, 1, 2, 6, 24}
	for trial := 0; trial < 300; trial++ {
		tb := randomTable(rng)
		got := tb.MinimalCovers()
		// Brute force: all covers, then minimality filter.
		all := tb.AllCovers()
		var want []Cover
		for _, c := range all {
			minimal := true
			for _, d := range all {
				if !d.Equal(c) && MoreGeneral(d, c) {
					minimal = false
					break
				}
			}
			if minimal {
				want = append(want, c)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
		if len(got) != len(want) {
			t.Fatalf("trial %d: minimal covers %v vs %v for %v", trial, renderCovers(got), renderCovers(want), tb.Rows)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: minimal covers differ: %v vs %v", trial, renderCovers(got), renderCovers(want))
			}
		}
		// Bound of Section 4.3 remark (1): |min-covers| ≤ k!.
		if len(got) > fact[tb.K] {
			t.Fatalf("trial %d: %d minimal covers exceeds %d! bound", trial, len(got), tb.K)
		}
	}
}

func TestRepresentativeSetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		tb := randomTable(rng)
		rep := Table{K: tb.K, Rows: tb.RepresentativeSet()}
		if !sameCovers(tb, rep) {
			t.Fatalf("trial %d: representative set not cover-equivalent: %v from %v", trial, rep.Rows, tb.Rows)
		}
		if len(rep.Rows) > len(tb.Rows) {
			t.Fatalf("trial %d: representative set larger than table", trial)
		}
	}
}

// TestAvoidable: some row avoids the forbidden values v (vᵢ = Blank
// meaning "no constraint on column i") exactly when v is no cover.
func TestAvoidable(t *testing.T) {
	tb := Table{K: 2, Rows: []database.Tuple{{1, 2}, {3, 4}}}
	// (1,4) hits both rows (row 1 via column 1, row 2 via column 2), so it
	// is a cover and nothing avoids it.
	if !tb.IsCover(Cover{1, 4}) {
		t.Errorf("(1,4) covers the table, so it must not be avoidable")
	}
	// (1,9) misses row (3,4): avoidable.
	if tb.IsCover(Cover{1, 9}) {
		t.Errorf("(1,9) misses row (3,4): must be avoidable")
	}
	// Blanks constrain nothing.
	if tb.IsCover(Cover{Blank, Blank}) {
		t.Errorf("all-blank vector must be avoidable on a nonempty table")
	}
	empty := Table{K: 2}
	if !empty.IsCover(Cover{Blank, Blank}) {
		t.Errorf("nothing is avoidable in an empty table")
	}
}

// ----- backtracking evaluator -----

func TestBacktrackAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	queries := []*logic.CQ{
		logictest.MustParseCQ("Q(x,y) :- E(x,z), E(z,y)."),
		logictest.MustParseCQ("Q(x,y) :- E(x,z), E(z,y), x != y."),
		logictest.MustParseCQ("Q(x) :- E(x,y), E(y,x), x < y."),
		logictest.MustParseCQ("Q() :- E(x,y), E(y,z), E(z,x)."),
		logictest.MustParseCQ("Q(x) :- E(x,x)."),
		logictest.MustParseCQ("Q(x) :- E(x,y), y <= x."),
		logictest.MustParseCQ("Q(x) :- E(x,y), E(y,z), x = z."),
	}
	for trial := 0; trial < 50; trial++ {
		db := database.NewDatabase()
		e := database.NewRelation("E", 2)
		for i := 0; i < 12; i++ {
			e.InsertValues(database.Value(rng.Intn(5)+1), database.Value(rng.Intn(5)+1))
		}
		e.Dedup()
		db.AddRelation(e)
		for _, q := range queries {
			got, err := EvalBacktrack(db, q)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, q, err)
			}
			want := q.EvalNaive(db)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d vs %d answers\n%v\n%v", trial, q, len(got), len(want), got, want)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d %s: mismatch", trial, q)
				}
			}
		}
	}
}

// ----- Theorem 4.15 clique reduction -----

func TestCliqueReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Deterministic: triangle graph has a 3-clique, path does not.
	tri := [][]bool{
		{false, true, true},
		{true, false, true},
		{true, true, false},
	}
	got, err := DecideClique(tri, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatalf("triangle must have a 3-clique via the reduction")
	}
	path := [][]bool{
		{false, true, false},
		{true, false, true},
		{false, true, false},
	}
	got, err = DecideClique(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatalf("path must not have a 3-clique via the reduction")
	}
	// Randomized agreement with brute force, k = 2..4.
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(3)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					adj[i][j] = true
					adj[j][i] = true
				}
			}
		}
		for k := 2; k <= 4; k++ {
			got, err := DecideClique(adj, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			want := HasCliqueBrute(adj, k)
			if got != want {
				t.Fatalf("trial %d k=%d: reduction=%v brute=%v adj=%v", trial, k, got, want, adj)
			}
		}
	}
}

func TestCliqueQueryIsAcyclic(t *testing.T) {
	adj := [][]bool{{false, true}, {true, false}}
	_, q := CliqueReduction(adj, 3)
	if !q.IsAcyclic() {
		t.Errorf("the Theorem 4.15 query must be acyclic (comparisons aside)")
	}
}

// ----- ACQ≠ enumeration (Theorem 4.20) -----

func sortTuples(ts []database.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func checkSame(t *testing.T, label string, got, want []database.Tuple) {
	t.Helper()
	sortTuples(got)
	sortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d answers want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: answer %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

func TestEnumerateNeqBasic(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	for _, p := range [][2]database.Value{{1, 2}, {2, 3}, {3, 1}, {1, 1}, {2, 2}} {
		e.InsertValues(p[0], p[1])
	}
	db.AddRelation(e)
	cases := []string{
		"Q(x,y) :- E(x,y), x != y.",         // free-free in one atom
		"Q(x) :- E(x,y), x != y.",           // free vs quantified, same atom
		"Q(x) :- E(x,y), E(y,z), x != z.",   // free vs quantified, cross atoms
		"Q(x) :- E(x,y), x != 2.",           // constant filter
		"Q(x,y) :- E(x,z), E(z,y), x != y.", // hmm: not free-connex (Π-shaped)
	}
	for _, src := range cases[:4] {
		q := logictest.MustParseCQ(src)
		en, err := EnumerateNeq(db, q, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		checkSame(t, src, delay.Collect(en), q.EvalNaive(db))
	}
	// The Π-shaped query must be rejected (not free-connex).
	if _, err := EnumerateNeq(db, logictest.MustParseCQ(cases[4]), nil); err == nil {
		t.Errorf("non-free-connex ACQ≠ must be rejected")
	}
	// Order comparisons must be rejected.
	if _, err := EnumerateNeq(db, logictest.MustParseCQ("Q(x) :- E(x,y), x < y."), nil); err == nil {
		t.Errorf("ACQ< must be rejected by the disequality enumerator")
	}
}

func TestEnumerateNeqTrivialConstraints(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	e.InsertValues(1, 2)
	db.AddRelation(e)
	// x != x is unsatisfiable.
	en, err := EnumerateNeq(db, logictest.MustParseCQ("Q(x) :- E(x,y), x != x."), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := delay.Collect(en); len(got) != 0 {
		t.Errorf("x != x must yield nothing, got %v", got)
	}
	// A constant-constant disequality that holds is dropped.
	en, err = EnumerateNeq(db, logictest.MustParseCQ("Q(x) :- E(x,y), 1 != 2."), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := delay.Collect(en); len(got) != 1 {
		t.Errorf("1 != 2 holds; expected one answer, got %v", got)
	}
}

// randomFreeConnexNeq builds random free-connex ACQ≠ instances.
func randomFreeConnexNeq(rng *rand.Rand) (*logic.CQ, bool) {
	numAtoms := 1 + rng.Intn(3)
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
	if !q.IsFreeConnex() {
		return nil, false
	}
	// Random disequalities over variable pairs (and an occasional constant).
	all := q.Vars()
	numNeq := rng.Intn(4)
	for i := 0; i < numNeq; i++ {
		if rng.Intn(5) == 0 {
			q.Comparisons = append(q.Comparisons, logic.Comparison{
				Op: logic.NEQ, L: logic.V(all[rng.Intn(len(all))]), R: logic.C(database.Value(rng.Intn(3) + 1))})
			continue
		}
		a := all[rng.Intn(len(all))]
		b := all[rng.Intn(len(all))]
		q.Comparisons = append(q.Comparisons, logic.Comparison{Op: logic.NEQ, L: logic.V(a), R: logic.V(b)})
	}
	return q, true
}

func TestEnumerateNeqDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tested := 0
	for trial := 0; trial < 3000 && tested < 400; trial++ {
		q, ok := randomFreeConnexNeq(rng)
		if !ok {
			continue
		}
		tested++
		db := database.NewDatabase()
		for _, a := range q.Atoms {
			if db.Relation(a.Pred) != nil {
				continue
			}
			r := database.NewRelation(a.Pred, len(a.Args))
			for i := 0; i < 8; i++ {
				tp := make(database.Tuple, len(a.Args))
				for j := range tp {
					tp[j] = database.Value(rng.Intn(3) + 1)
				}
				r.Insert(tp)
			}
			r.Dedup()
			db.AddRelation(r)
		}
		en, err := EnumerateNeq(db, q, nil)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}
		got := delay.Collect(en)
		want := q.EvalNaive(db)
		checkSame(t, fmt.Sprintf("trial %d %s", trial, q), got, want)
	}
	if tested < 200 {
		t.Fatalf("too few free-connex samples: %d", tested)
	}
}

// Measured delay of the ACQ≠ enumerator stays flat on a scaling workload.
func TestNeqDelayConstantish(t *testing.T) {
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z), x != z.")
	if !(&logic.CQ{Name: "p", Head: q.Head, Atoms: q.Atoms}).IsFreeConnex() {
		t.Fatalf("setup: expected free-connex")
	}
	run := func(n int) float64 {
		db := database.NewDatabase()
		a := database.NewRelation("A", 2)
		b := database.NewRelation("B", 2)
		for i := 0; i < n; i++ {
			a.InsertValues(database.Value(i), database.Value(i%97))
			b.InsertValues(database.Value(i%97), database.Value((i+1)%31))
		}
		a.Dedup()
		b.Dedup()
		db.AddRelation(a)
		db.AddRelation(b)
		c := &delay.Counter{}
		st, _ := delay.Measure(c, func() delay.Enumerator {
			e, err := EnumerateNeq(db, q, c)
			if err != nil {
				t.Fatal(err)
			}
			return e
		})
		if st.Outputs == 0 {
			t.Fatalf("no outputs at n=%d", n)
		}
		return float64(st.TotalSteps-st.PreprocessSteps) / float64(st.Outputs)
	}
	small := run(500)
	large := run(8000)
	if large > 5*small+32 {
		t.Errorf("ACQ≠ delay grew with n: %.1f -> %.1f", small, large)
	}
}
