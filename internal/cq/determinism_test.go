package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic/logictest"
)

// These tests pin down that every enumerator and evaluator in this package
// produces the identical answer *sequence* on repeated runs — a
// prerequisite for diff-testing the parallel engine against the sequential
// one, and for golden tests over enumeration order. Map iteration order
// must never leak into outputs.

func runTwice(t *testing.T, label string, mk func() delay.Enumerator) {
	t.Helper()
	first := delay.Collect(mk())
	second := delay.Collect(mk())
	exactSequence(t, label, second, first)
	if len(first) == 0 {
		t.Fatalf("%s: instance produced no answers; the test is vacuous", label)
	}
}

func TestEnumeratorsDeterministicSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	qFC := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	db := randomDB(rng, qFC, 25, 300)

	runTwice(t, "EnumerateConstantDelay", func() delay.Enumerator {
		e, err := EnumerateConstantDelay(db, qFC, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
	runTwice(t, "EnumerateLinearDelay", func() delay.Enumerator {
		e, err := EnumerateLinearDelay(db, qFC, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
}

func TestEvalDeterministicSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := logictest.MustParseCQ("Q(x,w) :- R(x,y), S(y,z), T(z,w).")
	db := randomDB(rng, q, 20, 250)
	first, err := Eval(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no answers; vacuous")
	}
	again, err := Eval(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	exactSequence(t, "Eval", again, first)
}

func TestRandomAccessDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	db := randomDB(rng, q, 25, 300)
	ra1, err := NewRandomAccess(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ra2, err := NewRandomAccess(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if ra1.Count().Cmp(ra2.Count()) != 0 {
		t.Fatalf("counts differ: %s vs %s", ra1.Count(), ra2.Count())
	}
	n := ra1.Count().Int64()
	if n == 0 {
		t.Fatal("no answers; vacuous")
	}
	for i := int64(0); i < n; i++ {
		a, err := ra1.GetInt(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ra2.GetInt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("index %d: %v vs %v — the access order is data-dependent but must be stable", i, a, b)
		}
	}
}

func TestRandomACQEnumerationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		q := randomACQ(rng)
		db := randomDB(rng, q, 6, 30)
		first, err := Eval(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Eval(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		exactSequence(t, fmt.Sprintf("trial %d", trial), again, first)
		_ = database.Tuple{}
	}
}
