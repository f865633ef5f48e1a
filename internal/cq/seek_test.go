package cq

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic/logictest"
	"repro/internal/oracle"
	"repro/internal/qgen"
)

// checkSeek pins the one-structure contract on a bound core: the counting
// pass totals the enumeration, and for EVERY offset i a cursor placed by
// Seek(i) drains exactly the suffix of a full enumeration, whose head is
// what GetInt(i) returns. It returns the full enumeration.
func checkSeek(t *testing.T, label string, core *OdometerCore) []database.Tuple {
	t.Helper()
	rows := delay.Collect(core.Cursor(nil))
	w, err := NewSpineWeights(core, nil)
	if err != nil {
		t.Fatalf("%s: NewSpineWeights: %v", label, err)
	}
	if w.Total() != uint64(len(rows)) {
		t.Fatalf("%s: Total() = %d, enumeration has %d answers", label, w.Total(), len(rows))
	}
	ra := core.RandomAccess(w, nil)
	od := core.Cursor(nil)
	for i := range rows {
		if !od.Seek(w, uint64(i)) {
			t.Fatalf("%s: Seek(%d) refused below Total %d", label, i, w.Total())
		}
		for k := i; ; k++ {
			tp, ok := od.Next()
			if !ok {
				if k != len(rows) {
					t.Fatalf("%s: Seek(%d) drained %d answers, want %d", label, i, k-i, len(rows)-i)
				}
				break
			}
			if k >= len(rows) || !tp.Equal(rows[k]) {
				t.Fatalf("%s: Seek(%d) answer %d = %v, enumeration has %v", label, i, k-i, tp, rows[min(k, len(rows)-1)])
			}
		}
		if tp, err := ra.GetInt(int64(i)); err != nil || !tp.Equal(rows[i]) {
			t.Fatalf("%s: GetInt(%d) = %v, %v; enumeration has %v", label, i, tp, err, rows[i])
		}
	}
	if od.Seek(w, w.Total()) {
		t.Fatalf("%s: Seek(Total) accepted", label)
	}
	if _, ok := od.Next(); ok {
		t.Fatalf("%s: cursor refused by Seek still produced an answer", label)
	}
	if _, err := ra.GetInt(int64(len(rows))); err == nil {
		t.Fatalf("%s: GetInt(Count) did not error", label)
	}
	return rows
}

func seekSuite(t *testing.T, seeds []int64) {
	for _, seed := range seeds {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		core, err := PrepareConstantDelay(db, q, nil)
		if err != nil {
			failInstance(t, seed, q, db, "PrepareConstantDelay: %v", err)
		}
		rows := checkSeek(t, fmt.Sprintf("seed %d (%s)", seed, q), core)
		if !sameAnswers(rows, want) {
			failInstance(t, seed, q, db, "enumeration %v != oracle %v", rows, want)
		}
	}
}

// TestDifferentialSeek: on every seeded instance, at every offset, seek ≡
// enumeration suffix ≡ random access, and the counting pass ≡ the oracle.
func TestDifferentialSeek(t *testing.T) { seekSuite(t, diffSeeds()) }

// TestDifferentialSeekDegradedHash: the same under a fingerprint function
// with two values, so every probe of the counting pass and of Seek resolves
// real collisions along shared probe chains.
func TestDifferentialSeekDegradedHash(t *testing.T) {
	defer database.SetIndexHashForTesting(collisionHash)()
	seekSuite(t, diffSeeds())
}

// TestSeekBranchingTree walks a spine with a position that has two
// children (the mixed-radix split) and a grandchild (the recursion), at
// sizes where buckets hold many rows.
func TestSeekBranchingTree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	q := logictest.MustParseCQ("Q(x,y,z,a,b,c,d) :- M(x,y,z), A(x,a), B(y,b), C(z,c), D(c,d).")
	db := randomDB(rng, q, 4, 14)
	core, err := PrepareConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewSpineWeights(core, nil)
	if err != nil {
		t.Fatal(err)
	}
	split, deep := false, false
	for j, kids := range w.kids {
		split = split || len(kids) > 1
		deep = deep || (len(kids) > 0 && j > 0)
	}
	if rows := checkSeek(t, q.String(), core); len(rows) < 100 || !split || !deep {
		t.Fatalf("%d answers, two-child position %v, grandchild %v; the instance lost its teeth", len(rows), split, deep)
	}
}

// TestSpineWeightsOverflow: a cross product with 2⁷⁰ answers has no
// uint64 counting pass — a typed error, never a wrapped number.
func TestSpineWeightsOverflow(t *testing.T) {
	db := database.NewDatabase()
	r := database.NewRelation("R", 1)
	for i := 0; i < 1<<10; i++ {
		r.InsertValues(database.Value(i))
	}
	db.AddRelation(r)
	q := logictest.MustParseCQ("Q(a,b,c,d,e,f,g) :- R(a), R(b), R(c), R(d), R(e), R(f), R(g).")
	core, err := PrepareConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpineWeights(core, nil); !errors.Is(err, ErrCountOverflow) {
		t.Fatalf("NewSpineWeights over 2^70 answers: err = %v, want ErrCountOverflow", err)
	}
	if _, err := NewRandomAccess(db, q); !errors.Is(err, ErrCountOverflow) {
		t.Fatalf("NewRandomAccess over 2^70 answers: err = %v, want ErrCountOverflow", err)
	}
	// One factor fewer fits: 2⁶⁰, the largest product the pass must carry.
	q6 := logictest.MustParseCQ("Q(a,b,c,d,e,f) :- R(a), R(b), R(c), R(d), R(e), R(f).")
	ra, err := NewRandomAccess(db, q6)
	if err != nil {
		t.Fatal(err)
	}
	if n := ra.Count(); !n.IsUint64() || n.Uint64() != 1<<60 {
		t.Fatalf("Count = %s, want 2^60", n)
	}
	last, err := ra.GetInt(1<<60 - 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range last {
		if v != 1<<10-1 {
			t.Fatalf("last answer %v, want all %d", last, 1<<10-1)
		}
	}
}

// TestSeekAllocs: warm random access, seeks, and a seek-then-scan page are
// allocation-free — the cursor owns every buffer they touch.
func TestSeekAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := logictest.MustParseCQ("Q(x,y,z) :- A(x,y), B(y,z).")
	db := randomDB(rng, q, 40, 2000)
	core, err := PrepareConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewSpineWeights(core, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := w.Total()
	if n < 1000 {
		t.Fatalf("only %d answers", n)
	}
	ra := core.RandomAccess(w, nil)
	od := core.Cursor(nil)
	od.Seek(w, 0) // the cursor's first Seek allocates its scratch
	ra.GetInt(0)
	var i uint64
	if a := testing.AllocsPerRun(200, func() {
		i = (i + 7919) % n
		if _, err := ra.GetInt(int64(i)); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("GetInt allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		i = (i + 7919) % n
		od.Seek(w, i)
	}); a != 0 {
		t.Errorf("Seek allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		i = (i + 7919) % n
		od.Seek(w, i)
		for k := 0; k < 64; k++ {
			if _, ok := od.Next(); !ok {
				break
			}
		}
	}); a != 0 {
		t.Errorf("seek + 64 Next allocates %.1f per page, want 0", a)
	}
}

// TestSeekSteps pins the counted cost of a seek: one step per spine
// position, then the same emit steps as any answer; continuing costs what
// enumeration costs.
func TestSeekSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := logictest.MustParseCQ("Q(x,y,z) :- A(x,y), B(y,z).")
	db := randomDB(rng, q, 10, 100)
	core, err := PrepareConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	cw := &delay.Counter{}
	w, err := NewSpineWeights(core, cw)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Steps() != 0 {
		t.Fatalf("counting pass ticked %d steps, want 0", cw.Steps())
	}
	c := &delay.Counter{}
	od := core.Cursor(c)
	od.Seek(w, w.Total()/2)
	if got, want := c.Steps(), int64(len(core.order)); got != want {
		t.Fatalf("Seek ticked %d steps, want %d (one per position)", got, want)
	}
	od.Next()
	if got, want := c.Steps(), int64(len(core.order)+len(q.Head)); got != want {
		t.Fatalf("Seek+Next ticked %d steps, want %d", got, want)
	}
}
