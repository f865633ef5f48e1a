package cq

// Differential suite: every answer-producing engine in this package is
// compared against internal/oracle's brute-force reference on hundreds of
// seeded random instances from internal/qgen. A failure prints the seed,
// the query, and the full database, so any mismatch reproduces with
//
//	go test ./internal/cq -run TestDifferential -seed=N

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/qgen"
)

var seedFlag = flag.Int64("seed", -1, "replay a single differential-suite seed (-1 runs the full sweep)")

// numSeeds is the size of the full sweep; together with the suites in
// internal/counting and internal/database this comfortably exceeds the
// 200-instance floor of the testing plan.
const numSeeds = 250

func diffSeeds() []int64 {
	if *seedFlag >= 0 {
		return []int64{*seedFlag}
	}
	seeds := make([]int64, numSeeds)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

// failInstance aborts the test printing everything needed to reproduce the
// mismatch as a one-liner.
func failInstance(t *testing.T, seed int64, q fmt.Stringer, db *database.Database, format string, args ...interface{}) {
	t.Helper()
	t.Fatalf("%s\nseed %d — replay with: go test ./internal/cq -run %s -seed=%d\n%s",
		fmt.Sprintf(format, args...), seed, t.Name(), seed, qgen.FormatInstance(q, db))
}

func sortedCopy(ts []database.Tuple) []database.Tuple {
	out := append([]database.Tuple(nil), ts...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Compare(out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sameAnswers(a, b []database.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedCopy(a), sortedCopy(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestDifferentialEval: oracle ≡ EvalNaive ≡ sequential Yannakakis ≡
// parallel Yannakakis on free-connex instances.
func TestDifferentialEval(t *testing.T) {
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		// EvalNaive enumerates dom^vars without pruning; keep the third
		// opinion to instances where that stays cheap.
		if len(q.Vars()) <= 8 {
			if naive := q.EvalNaive(db); !sameAnswers(naive, want) {
				failInstance(t, seed, q, db, "EvalNaive %v != oracle %v", naive, want)
			}
		}
		got, err := Eval(db, q, nil)
		if err != nil {
			failInstance(t, seed, q, db, "Eval: %v", err)
		}
		if !sameAnswers(got, want) {
			failInstance(t, seed, q, db, "Eval %v != oracle %v", got, want)
		}
		par, err := ParEval(db, q, 4, nil)
		if err != nil {
			failInstance(t, seed, q, db, "ParEval: %v", err)
		}
		if !sameAnswers(par, want) {
			failInstance(t, seed, q, db, "ParEval %v != oracle %v", par, want)
		}
	}
}

// TestDifferentialEnumeration: the sets emitted by the constant-delay and
// linear-delay enumerators equal the oracle's answer set, and neither
// enumerator emits a duplicate.
func TestDifferentialEnumeration(t *testing.T) {
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		enums := []struct {
			name  string
			build func(c *delay.Counter) (delay.Enumerator, error)
		}{
			{"EnumerateConstantDelay", func(c *delay.Counter) (delay.Enumerator, error) { return EnumerateConstantDelay(db, q, c) }},
			{"EnumerateLinearDelay", func(c *delay.Counter) (delay.Enumerator, error) { return EnumerateLinearDelay(db, q, c) }},
		}
		for _, en := range enums {
			e, err := en.build(&delay.Counter{})
			if err != nil {
				failInstance(t, seed, q, db, "%s: %v", en.name, err)
			}
			got := delay.Collect(e)
			seen := make(map[string]bool, len(got))
			for _, tp := range got {
				k := tp.FullKey()
				if seen[k] {
					failInstance(t, seed, q, db, "%s emitted duplicate %v", en.name, tp)
				}
				seen[k] = true
			}
			if !sameAnswers(got, want) {
				failInstance(t, seed, q, db, "%s %v != oracle %v", en.name, got, want)
			}
		}
	}
}

// TestDifferentialRandomAccess: Count matches the oracle and i ↦ Get(i) is
// a bijection from [0, Count) onto the answer set; out-of-range indexes
// error.
func TestDifferentialRandomAccess(t *testing.T) {
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		ra, err := NewRandomAccess(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "NewRandomAccess: %v", err)
		}
		n := ra.Count()
		if !n.IsInt64() || n.Int64() != int64(len(want)) {
			failInstance(t, seed, q, db, "Count %s != oracle %d", n, len(want))
		}
		got := make([]database.Tuple, 0, len(want))
		seen := make(map[string]bool, len(want))
		for i := int64(0); i < n.Int64(); i++ {
			tp, err := ra.GetInt(i)
			if err != nil {
				failInstance(t, seed, q, db, "Get(%d): %v", i, err)
			}
			k := tp.FullKey()
			if seen[k] {
				failInstance(t, seed, q, db, "Get(%d) repeats %v — not injective", i, tp)
			}
			seen[k] = true
			got = append(got, tp.Clone())
		}
		if !sameAnswers(got, want) {
			failInstance(t, seed, q, db, "random access image %v != oracle %v", got, want)
		}
		if _, err := ra.GetInt(n.Int64()); err == nil {
			failInstance(t, seed, q, db, "Get(Count) did not error")
		}
	}
}

// TestDifferentialDecide: the Boolean query problem on general acyclic
// instances — oracle ≡ DecideNaive ≡ semijoin Decide ≡ ParDecide.
func TestDifferentialDecide(t *testing.T) {
	cfg := qgen.Default()
	for _, seed := range diffSeeds() {
		rng := rand.New(rand.NewSource(seed))
		q := qgen.AcyclicCQ(rng, cfg)
		db := qgen.DatabaseFor(rng, cfg, q)
		want, err := oracle.Decide(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		if naive := q.DecideNaive(db); naive != want {
			failInstance(t, seed, q, db, "DecideNaive %v != oracle %v", naive, want)
		}
		got, err := Decide(db, q, nil)
		if err != nil {
			failInstance(t, seed, q, db, "Decide: %v", err)
		}
		if got != want {
			failInstance(t, seed, q, db, "Decide %v != oracle %v", got, want)
		}
		par, err := ParDecide(db, q, 4, nil)
		if err != nil {
			failInstance(t, seed, q, db, "ParDecide: %v", err)
		}
		if par != want {
			failInstance(t, seed, q, db, "ParDecide %v != oracle %v", par, want)
		}
	}
}

// TestDifferentialStepCounts: on nonempty joins the parallel engine records
// exactly the sequential engine's counted steps — parallelism redistributes
// the work, it must not change its total (the PR 1 contract).
func TestDifferentialStepCounts(t *testing.T) {
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		seqC := &delay.Counter{}
		seq, err := Eval(db, q, seqC)
		if err != nil {
			failInstance(t, seed, q, db, "Eval: %v", err)
		}
		parC := &delay.Counter{}
		if _, err := ParEval(db, q, 4, parC); err != nil {
			failInstance(t, seed, q, db, "ParEval: %v", err)
		}
		// The parallel reducer early-exits once some relation is empty, so
		// step equality is only contractual on nonempty results.
		if len(seq) > 0 && seqC.Steps() != parC.Steps() {
			failInstance(t, seed, q, db, "steps: sequential %d != parallel %d", seqC.Steps(), parC.Steps())
		}
	}
}

// evalWithSemijoin is a scratch copy of the Eval pipeline (full reduction +
// bottom-up join pass) with a swappable semijoin operator, used to verify
// that the differential suite has the sensitivity to catch a subtly broken
// operator.
func evalWithSemijoin(db *database.Database, q *logic.CQ, sj func(a, b Rel) Rel) ([]database.Tuple, error) {
	t, err := BuildTree(db, q, false)
	if err != nil {
		return nil, err
	}
	for _, i := range t.postord {
		for _, ch := range t.children[i] {
			t.Rels[i] = sj(t.Rels[i], t.Rels[ch])
		}
	}
	for k := len(t.postord) - 1; k >= 0; k-- {
		i := t.postord[k]
		for _, ch := range t.children[i] {
			t.Rels[ch] = sj(t.Rels[ch], t.Rels[i])
		}
	}
	for _, r := range t.Rels {
		if r.R.Len() == 0 {
			return nil, nil
		}
	}
	head := headSet(q)
	acc := make([]Rel, len(t.Rels))
	for _, i := range t.postord {
		acc[i] = t.evalNode(i, head, acc, nil)
	}
	out := project(acc[t.JT.Root()], q.Head)
	out.R.Dedup()
	return out.R.Tuples, nil
}

// brokenSemijoin is semijoin with an injected off-by-one: it silently drops
// the last surviving tuple.
func brokenSemijoin(a, b Rel) Rel {
	r := semijoin(a, b)
	if n := r.R.Len(); n > 0 {
		return Rel{Schema: r.Schema, R: database.FromTuples(r.R.Name, r.R.Arity, r.R.Tuples[:n-1])}
	}
	return r
}

// TestDifferentialInjectedSemijoinBug: the correct semijoin agrees with the
// oracle on every seed, while the off-by-one copy must be caught on at
// least one — evidence the suite can see a one-tuple error in a single
// relational operator.
func TestDifferentialInjectedSemijoinBug(t *testing.T) {
	caught := 0
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		good, err := evalWithSemijoin(db, q, semijoin)
		if err != nil {
			failInstance(t, seed, q, db, "evalWithSemijoin: %v", err)
		}
		if !sameAnswers(good, want) {
			failInstance(t, seed, q, db, "scratch pipeline %v != oracle %v", good, want)
		}
		bad, err := evalWithSemijoin(db, q, brokenSemijoin)
		if err != nil || !sameAnswers(bad, want) {
			caught++
		}
	}
	if len(diffSeeds()) > 1 && caught == 0 {
		t.Fatalf("injected off-by-one semijoin survived all %d seeds — the suite has no sensitivity", numSeeds)
	}
	if caught > 0 {
		t.Logf("injected semijoin bug caught on %d/%d seeds", caught, len(diffSeeds()))
	}
}

// FuzzDifferentialEval lets the fuzzer drive the seed space beyond the
// fixed sweep: every interesting corpus entry is an instance on which some
// engine once disagreed or crashed.
func FuzzDifferentialEval(f *testing.F) {
	for s := int64(0); s < 16; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			t.Skip() // budget blow-up, not an engine disagreement
		}
		got, err := Eval(db, q, nil)
		if err != nil {
			t.Fatalf("seed %d: Eval: %v\n%s", seed, err, qgen.FormatInstance(q, db))
		}
		if !sameAnswers(got, want) {
			t.Fatalf("seed %d: Eval %v != oracle %v\n%s", seed, got, want, qgen.FormatInstance(q, db))
		}
		e, err := EnumerateConstantDelay(db, q, &delay.Counter{})
		if err != nil {
			t.Fatalf("seed %d: EnumerateConstantDelay: %v\n%s", seed, err, qgen.FormatInstance(q, db))
		}
		if enum := delay.Collect(e); !sameAnswers(enum, want) {
			t.Fatalf("seed %d: enumeration %v != oracle %v\n%s", seed, enum, want, qgen.FormatInstance(q, db))
		}
	})
}
