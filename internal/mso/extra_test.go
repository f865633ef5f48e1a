package mso

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// Structural atoms in both directions, against the naive evaluator, on
// larger random trees than the base corpus.
func TestStructuralAtomsExtra(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	formulas := []string{
		"exists x. exists y. (Left(x,y) and Right(x,y))", // impossible
		"exists x. exists y. exists z. (Left(x,y) and Right(x,z) and not y = z)",
		"forall x. forall y. (Left(x,y) -> Child(x,y))",   // valid
		"forall x. forall y. (Child(x,y) -> not Root(y))", // children are not the root
		"exists x. (Leaf(x) and Root(x))",                 // single-node tree only
	}
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(6)
		tr := RandomTree(rng, n, alphabet)
		db := relationalView(tr)
		for _, src := range formulas {
			f := logictest.MustParseFormula(src)
			want := logic.Eval(db, f, logic.Interpretation{})
			got, err := ModelCheck(tr, f)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if got != want {
				t.Fatalf("trial %d n=%d %q: got %v want %v (left %v right %v)",
					trial, n, src, got, want, tr.Left, tr.Right)
			}
		}
	}
}

// Counting a query whose answer count is a known closed form: subsets of
// the a-labelled nodes.
func TestCountClosedForm(t *testing.T) {
	for _, n := range []int{4, 9, 15} {
		labels := make([]int, n) // all label "a"
		tr := Path(n, labels, alphabet)
		f := logictest.MustParseFormula("forall y. (y in X -> a(y))")
		got, err := Count(tr, f)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Lsh(big.NewInt(1), uint(n)) // all 2^n subsets
		if got.Cmp(want) != 0 {
			t.Errorf("n=%d: %s subsets, want %s", n, got, want)
		}
	}
}

// Enumerating FO answers: positions of a-labelled leaves, as a set of FO
// assignments; the count and validity must agree with the naive evaluator.
func TestEnumerateFOAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	tr := RandomTree(rng, 9, alphabet)
	f := logictest.MustParseFormula("a(x) and Leaf(x)")
	e, err := Enumerate(tr, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	answers := CollectAnswers(e)
	for _, a := range answers {
		v := a.FO["x"]
		if tr.Label[v] != 0 {
			t.Errorf("answer %d is not a-labelled", v)
		}
		if tr.Left[v] != -1 || tr.Right[v] != -1 {
			t.Errorf("answer %d is not a leaf", v)
		}
	}
	// Cross-check the count.
	want := 0
	for v := 0; v < tr.N; v++ {
		if tr.Label[v] == 0 && tr.Left[v] == -1 && tr.Right[v] == -1 {
			want++
		}
	}
	if len(answers) != want {
		t.Errorf("enumerated %d answers, want %d", len(answers), want)
	}
}

// Determinization must preserve the accepted language (on sampled
// annotations).
func TestDeterminizePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	tr := RandomTree(rng, 7, alphabet)
	f := logictest.MustParseFormula("exists y. (Child(x,y) and b(y))")
	c, err := Compile(tr, f)
	if err != nil {
		t.Fatal(err)
	}
	det := c.TA.Determinize()
	bits := make([]uint32, tr.N)
	for trial := 0; trial < 200; trial++ {
		for i := range bits {
			bits[i] = uint32(rng.Intn(1 << c.TA.K))
		}
		if c.TA.Accepts(tr, bits) != det.Accepts(tr, bits) {
			t.Fatalf("determinization changed the language on %v", bits)
		}
	}
}
