package core

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
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
		r := Analyze(logictest.MustParseCQ(c.src))
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
	r := Analyze(logictest.MustParseCQ("Q(x) :- E(x,y), x < y."))
	if !r.HasOrder || !strings.Contains(r.DecisionVerdict, "W[1]") {
		t.Errorf("order verdict: %+v", r.DecisionVerdict)
	}
	rn := Analyze(logictest.MustParseCQ("Q() :- !R(x,y), !S(y,z)."))
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
			db := randomDB(rng, q)
			want := q.EvalNaive(db)

			got, err := Enumerate(db, q, nil)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			res := delay.Collect(got)
			if len(res) != len(want) {
				t.Fatalf("trial %d %s: %d answers, want %d", trial, src, len(res), len(want))
			}

			cnt, err := Count(db, q)
			if err != nil {
				t.Fatalf("%s: count: %v", src, err)
			}
			if cnt.Cmp(big.NewInt(int64(len(want)))) != 0 {
				t.Fatalf("trial %d %s: count %s, want %d", trial, src, cnt, len(want))
			}

			ok, err := Decide(db, q)
			if err != nil {
				t.Fatalf("%s: decide: %v", src, err)
			}
			bq := &logic.CQ{Atoms: q.Atoms, Comparisons: q.Comparisons}
			if ok != bq.DecideNaive(db) {
				t.Fatalf("trial %d %s: decide mismatch", trial, src)
			}
		}
	}
}

func TestDecideNCQ(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := logictest.MustParseCQ("Q() :- !R(x,y), !S(y,z).")
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, q)
		got, err := Decide(db, q)
		if err != nil {
			t.Fatal(err)
		}
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
			db := randomDB(rng, q)
			want := q.EvalNaive(db)

			got, err := Enumerate(db, q, nil)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if res := delay.Collect(got); len(res) != len(want) {
				t.Fatalf("trial %d %s: %d answers, want %d", trial, src, len(res), len(want))
			}
			cnt, err := Count(db, q)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if cnt.Cmp(big.NewInt(int64(len(want)))) != 0 {
				t.Fatalf("trial %d %s: count %s want %d", trial, src, cnt, len(want))
			}
			bq := &logic.CQ{Atoms: q.Atoms, NegAtoms: q.NegAtoms, Comparisons: q.Comparisons}
			ok, err := Decide(db, q)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if ok != bq.DecideNaive(db) {
				t.Fatalf("trial %d %s: decide mismatch", trial, src)
			}
		}
	}
}

func TestLoadFacts(t *testing.T) {
	src := `
# a small social network
friend(alice, bob).
friend(bob, carol).
age(alice, 31).
flag(7).

friend(alice, bob).
`
	dict := database.NewDictionary()
	db, err := LoadFacts(strings.NewReader(src), dict)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("friend").Len() != 2 {
		t.Errorf("friend: %d tuples, want 2 (dedup)", db.Relation("friend").Len())
	}
	if db.Relation("age").Len() != 1 || db.Relation("flag").Len() != 1 {
		t.Errorf("age/flag loading failed")
	}
	// Numbers stay numbers; symbols intern.
	if db.Relation("flag").Tuples[0][0] != 7 {
		t.Errorf("numeric constant mangled")
	}
	got := FormatTuple(db.Relation("friend").Tuples[0], dict)
	if !strings.Contains(got, "alice") && !strings.Contains(got, "bob") {
		t.Errorf("FormatTuple: %s", got)
	}
	// Errors.
	if _, err := LoadFacts(strings.NewReader("nonsense"), dict); err == nil {
		t.Errorf("malformed line must fail")
	}
	if _, err := LoadFacts(strings.NewReader("r(a).\nr(a,b)."), dict); err == nil {
		t.Errorf("arity clash must fail")
	}
}
