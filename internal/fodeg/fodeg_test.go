package fodeg

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// randomBoundedDegreeGraph generates a graph with max degree ≤ d.
func randomBoundedDegreeGraph(rng *rand.Rand, n, d int) ([][2]int, []bool) {
	deg := make([]int, n)
	var edges [][2]int
	attempts := n * d
	for i := 0; i < attempts; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || deg[a] >= d || deg[b] >= d {
			continue
		}
		edges = append(edges, [2]int{a, b})
		deg[a]++
		deg[b]++
	}
	pred := make([]bool, n)
	for i := range pred {
		pred[i] = rng.Intn(3) == 0
	}
	return edges, pred
}

func buildStructure(t testing.TB, n int, edges [][2]int, pred []bool) *Structure {
	t.Helper()
	s, err := FromGraph(n, edges, map[string][]bool{"P": pred})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFromGraphInjectiveAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges, pred := randomBoundedDegreeGraph(rng, 40, 3)
	s := buildStructure(t, 40, edges, pred)
	// Every edge must be realized by some matching function (in one
	// direction), and functions must be injective (validated by AddFunc).
	ids := s.EdgeFuncIDs()
	if len(ids) == 0 {
		t.Fatalf("no edge functions")
	}
	for _, e := range edges {
		found := false
		for _, f := range ids {
			if s.Apply(f, e[0]) == e[1] || s.Apply(f, e[1]) == e[0] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %v not represented", e)
		}
	}
	// Inverses invert.
	for _, f := range ids {
		inv := s.Inverse(f)
		for a := 0; a < s.N; a++ {
			if b := s.Apply(f, a); b >= 0 {
				if s.Apply(inv, b) != a {
					t.Fatalf("inverse of func %d broken at %d", f, a)
				}
			}
		}
	}
}

func TestTermsAndBitmaps(t *testing.T) {
	s := NewStructure(4)
	// f: 0→1, 1→2 (partial).
	fid, err := s.AddFunc("f", []int{1, 2, -1, -1})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := s.AddPred("P", []bool{false, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	tm := Ap(V("x"), fid, fid) // f(f(x))
	if got := tm.Eval(s, 0); got != 2 {
		t.Errorf("f(f(0)) = %d, want 2", got)
	}
	if got := tm.Eval(s, 1); got != -1 {
		t.Errorf("f(f(1)) must be undefined, got %d", got)
	}
	// Pullback of P through f∘f: {0}.
	bm := s.PullbackPred([]int{fid, fid}, pid)
	if !bm[0] || bm[1] || bm[2] || bm[3] {
		t.Errorf("pullback bitmap wrong: %v", bm)
	}
	// Definedness of f: {0,1}.
	def := s.PullbackPred([]int{fid}, -1)
	if !def[0] || !def[1] || def[2] {
		t.Errorf("definedness bitmap wrong: %v", def)
	}
	// Inverse path: f~(f(x)) = x where defined.
	inv := s.InversePath([]int{fid, fid})
	for a := 0; a < 4; a++ {
		v := tm.Eval(s, a)
		if v >= 0 {
			back := Term{Path: inv}.Eval(s, v)
			if back != a {
				t.Errorf("inverse path broken at %d", a)
			}
		}
	}
	// AddFunc rejects non-injective maps.
	if _, err := s.AddFunc("g", []int{1, 1, -1, -1}); err == nil {
		t.Errorf("non-injective function must be rejected")
	}
}

// sentenceCorpus returns FO sentences in functional form for a structure
// with predicate P and edge functions.
func sentenceCorpus(s *Structure) []Formula {
	p, _ := s.PredID("P")
	edge := func(x, y string) Formula {
		var ds []Formula
		for _, f := range s.EdgeFuncIDs() {
			ds = append(ds, Eq{T1: Ap(V(x), f), T2: V(y)})
		}
		return Disj{Fs: ds}
	}
	return []Formula{
		Ex{Var: "x", F: Pr{Pred: p, T: V("x")}},
		Ex{Var: "x", F: Ex{Var: "y", F: Conj{Fs: []Formula{edge("x", "y"), Pr{Pred: p, T: V("y")}}}}},
		All{Var: "x", F: Disj{Fs: []Formula{Not{F: Pr{Pred: p, T: V("x")}}, Ex{Var: "y", F: edge("x", "y")}}}},
		Ex{Var: "x", F: Not{F: Ex{Var: "y", F: edge("x", "y")}}},
		Ex{Var: "x", F: Ex{Var: "y", F: Conj{Fs: []Formula{
			Not{F: Eq{T1: V("x"), T2: V("y")}},
			Pr{Pred: p, T: V("x")},
			Pr{Pred: p, T: V("y")},
		}}}},
		All{Var: "x", F: All{Var: "y", F: Disj{Fs: []Formula{
			Not{F: edge("x", "y")},
			Not{F: Pr{Pred: p, T: V("x")}},
		}}}},
	}
}

func TestModelCheckAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(8)
		edges, pred := randomBoundedDegreeGraph(rng, n, 2+rng.Intn(2))
		s := buildStructure(t, n, edges, pred)
		for fi, f := range sentenceCorpus(s) {
			want := s.EvalNaive(f, map[string]int{})
			got, err := s.ModelCheck(f)
			if err != nil {
				t.Fatalf("trial %d formula %d: %v", trial, fi, err)
			}
			if got != want {
				t.Fatalf("trial %d formula %d: ModelCheck=%v naive=%v (n=%d edges=%v pred=%v)",
					trial, fi, got, want, n, edges, pred)
			}
		}
	}
}

// openCorpus returns formulas with free variables.
func openCorpus(s *Structure) []struct {
	f    Formula
	vars []string
} {
	p, _ := s.PredID("P")
	edge := func(x, y string) Formula {
		var ds []Formula
		for _, f := range s.EdgeFuncIDs() {
			ds = append(ds, Eq{T1: Ap(V(x), f), T2: V(y)})
		}
		return Disj{Fs: ds}
	}
	return []struct {
		f    Formula
		vars []string
	}{
		{Pr{Pred: p, T: V("x")}, []string{"x"}},
		{Ex{Var: "y", F: Conj{Fs: []Formula{edge("x", "y"), Not{F: Pr{Pred: p, T: V("y")}}}}}, []string{"x"}},
		{Not{F: Ex{Var: "y", F: Conj{Fs: []Formula{edge("x", "y"), Pr{Pred: p, T: V("y")}}}}}, []string{"x"}},
		{Disj{Fs: []Formula{edge("x", "y"), Conj{Fs: []Formula{Pr{Pred: p, T: V("x")}, Not{F: Eq{T1: V("x"), T2: V("y")}}}}}}, []string{"x", "y"}},
		{Conj{Fs: []Formula{Pr{Pred: p, T: V("x")}, Not{F: Eq{T1: V("x"), T2: V("y")}}, Not{F: edge("x", "y")}}}, []string{"x", "y"}},
		{Ex{Var: "z", F: Conj{Fs: []Formula{edge("x", "z"), edge("z", "y")}}}, []string{"x", "y"}},
	}
}

func bruteAnswers(s *Structure, f Formula, vars []string) []database.Tuple {
	asg := map[string]int{}
	var out []database.Tuple
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			if s.EvalNaive(f, asg) {
				t := make(database.Tuple, len(vars))
				for j, v := range vars {
					t[j] = database.Value(asg[v])
				}
				out = append(out, t)
			}
			return
		}
		for a := 0; a < s.N; a++ {
			asg[vars[i]] = a
			rec(i + 1)
		}
		delete(asg, vars[i])
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func TestEnumerateAndCountAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(7)
		edges, pred := randomBoundedDegreeGraph(rng, n, 2)
		s := buildStructure(t, n, edges, pred)
		for fi, tc := range openCorpus(s) {
			want := bruteAnswers(s, tc.f, tc.vars)

			en, err := s.Enumerate(tc.f, tc.vars, nil)
			if err != nil {
				t.Fatalf("trial %d formula %d: enumerate: %v", trial, fi, err)
			}
			got := delay.Collect(en)
			sort.Slice(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 })
			if len(got) != len(want) {
				t.Fatalf("trial %d formula %d: %d answers, want %d\ngot %v\nwant %v",
					trial, fi, len(got), len(want), got, want)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d formula %d: answer %d: %v vs %v", trial, fi, i, got[i], want[i])
				}
			}

			cnt, err := s.Count(tc.f, tc.vars)
			if err != nil {
				t.Fatalf("trial %d formula %d: count: %v", trial, fi, err)
			}
			if cnt.Cmp(big.NewInt(int64(len(want)))) != 0 {
				t.Fatalf("trial %d formula %d: count=%s want %d", trial, fi, cnt, len(want))
			}
		}
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edges, pred := randomBoundedDegreeGraph(rng, 10, 3)
	s := buildStructure(t, 10, edges, pred)
	for fi, tc := range openCorpus(s) {
		en, err := s.Enumerate(tc.f, tc.vars, nil)
		if err != nil {
			t.Fatalf("formula %d: %v", fi, err)
		}
		seen := map[string]bool{}
		for {
			tup, ok := en.Next()
			if !ok {
				break
			}
			k := tup.String()
			if seen[k] {
				t.Fatalf("formula %d: duplicate %v", fi, tup)
			}
			seen[k] = true
		}
	}
}

func TestTranslateGraphFO(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(6)
		edges, pred := randomBoundedDegreeGraph(rng, n, 2)
		s := buildStructure(t, n, edges, pred)

		// Relational database view for the logic-package evaluator.
		db := database.NewDatabase()
		e := database.NewRelation("E", 2)
		for _, ed := range edges {
			e.InsertValues(database.Value(ed[0]), database.Value(ed[1]))
			e.InsertValues(database.Value(ed[1]), database.Value(ed[0]))
		}
		e.Dedup()
		db.AddRelation(e)
		pr := database.NewRelation("P", 1)
		for i, b := range pred {
			if b {
				pr.InsertValues(database.Value(i))
			}
		}
		db.AddRelation(pr)

		sentences := []string{
			"exists x. exists y. (E(x,y) and P(y))",
			"exists x. not exists y. E(x,y)",
			"forall x. (P(x) -> exists y. E(x,y))",
			"exists x. exists y. (E(x,y) and not x = y and P(x))",
		}
		for _, src := range sentences {
			lf := logictest.MustParseFormula(src)
			ff, err := s.TranslateGraphFO(lf)
			if err != nil {
				t.Fatalf("translate %q: %v", src, err)
			}
			got, err := s.ModelCheck(ff)
			if err != nil {
				t.Fatalf("model check %q: %v", src, err)
			}
			// The relational evaluator ranges over the active domain of db,
			// which may exclude isolated vertices; evaluate the functional
			// naive evaluator instead for ground truth over 0..n-1.
			want := s.EvalNaive(ff, map[string]int{})
			if got != want {
				t.Fatalf("trial %d %q: got %v want %v", trial, src, got, want)
			}
			// Cross-check the translation itself against the relational
			// semantics on the common domain when every vertex is active.
			active := len(db.Domain()) == n
			if active {
				rel := logic.Eval(db, lf, logic.Interpretation{})
				if rel != want {
					t.Fatalf("trial %d %q: relational %v functional %v", trial, src, rel, want)
				}
			}
		}
	}
}

func TestTranslateErrors(t *testing.T) {
	s := NewStructure(3)
	if _, err := s.TranslateGraphFO(logictest.MustParseFormula("exists x. R(x,y,z)")); err == nil {
		t.Errorf("ternary atom must be rejected")
	}
	if _, err := s.TranslateGraphFO(logictest.MustParseFormula("exists x. x < 3")); err == nil {
		t.Errorf("order comparison must be rejected")
	}
	if _, err := s.TranslateGraphFO(logictest.MustParseFormula("exists x. x in X")); err == nil {
		t.Errorf("set membership must be rejected")
	}
}

// The measured delay must not grow with n (Theorem 3.2).
func TestConstantDelayBoundedDegree(t *testing.T) {
	run := func(n int) int64 {
		// Cycle graph plus predicate on every third vertex.
		var edges [][2]int
		pred := make([]bool, n)
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n})
			pred[i] = i%3 == 0
		}
		s, err := FromGraph(n, edges, map[string][]bool{"P": pred})
		if err != nil {
			t.Fatal(err)
		}
		p, _ := s.PredID("P")
		edge := func(x, y string) Formula {
			var ds []Formula
			for _, f := range s.EdgeFuncIDs() {
				ds = append(ds, Eq{T1: Ap(V(x), f), T2: V(y)})
			}
			return Disj{Fs: ds}
		}
		f := Ex{Var: "y", F: Conj{Fs: []Formula{edge("x", "y"), Pr{Pred: p, T: V("y")}}}}
		c := &delay.Counter{}
		st, _ := delay.Measure(c, func() delay.Enumerator {
			e, err := s.Enumerate(f, []string{"x"}, c)
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
	small := run(60)
	large := run(6000)
	if large > 4*small+32 {
		t.Errorf("delay grew with n: %d -> %d", small, large)
	}
}

func TestModelCheckRejectsOpenFormula(t *testing.T) {
	s := NewStructure(3)
	pid, _ := s.AddPred("P", []bool{true, false, true})
	if _, err := s.ModelCheck(Pr{Pred: pid, T: V("x")}); err == nil {
		t.Errorf("open formula must be rejected by ModelCheck")
	}
}

func TestStructureErrors(t *testing.T) {
	s := NewStructure(2)
	if _, err := s.AddPred("P", []bool{true}); err == nil {
		t.Errorf("wrong-length bitmap must be rejected")
	}
	if _, err := s.AddPred("Q", []bool{true, false}); err != nil {
		t.Errorf("AddPred: %v", err)
	}
	if _, err := s.AddPred("Q", []bool{true, false}); err == nil {
		t.Errorf("duplicate predicate must be rejected")
	}
	if _, err := s.AddFunc("f", []int{5, -1}); err == nil {
		t.Errorf("out-of-range function must be rejected")
	}
	if _, err := FromGraph(2, [][2]int{{0, 5}}, nil); err == nil {
		t.Errorf("out-of-range edge must be rejected")
	}
	_ = fmt.Sprint(s.N)
}
