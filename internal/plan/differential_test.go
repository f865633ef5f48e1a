package plan_test

// Differential suite for the Compile → Bind → Execute pipeline: on hundreds
// of seeded random instances the pipeline must agree with the engines it
// routes to, called directly, and with internal/oracle's brute-force
// reference — on the answers AND on the counted steps. A failure prints the seed, the query, and the
// database, so any mismatch reproduces with
//
//	go test ./internal/plan -run TestDifferential -seed=N

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/counting"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/qgen"
)

var seedFlag = flag.Int64("seed", -1, "replay a single differential-suite seed (-1 runs the full sweep)")

// numSeeds matches the sweep size of the engine-level suites in
// internal/cq and internal/counting.
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

func failInstance(t *testing.T, seed int64, q fmt.Stringer, db *database.Database, format string, args ...interface{}) {
	t.Helper()
	t.Fatalf("%s\nseed %d — replay with: go test ./internal/plan -run %s -seed=%d\n%s",
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

func sameSequence(a, b []database.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// oneShot enumerates q with the engine p routes it to, called directly
// rather than through Bind: the engine side of each comparison.
func oneShot(p *plan.Plan, db *database.Database, q *logic.CQ, c *delay.Counter) (delay.Enumerator, error) {
	switch p.EnumerateEngine {
	case plan.EngineConstantDelay:
		return cq.EnumerateConstantDelay(db, q, c)
	case plan.EngineLinearDelay:
		return cq.EnumerateLinearDelay(db, q, c)
	}
	return nil, fmt.Errorf("no direct engine for route %s", p.EnumerateEngine)
}

// TestDifferentialPipeline: for every seeded instance, the explicit
// Compile → Bind → Execute chain produces the oracle's answer set for
// decide, count, and enumerate, with the total counted steps bit-identical
// to the routed engine called directly; and a second execution of the same
// Prepared (the warm path) replays the identical answer sequence with the
// identical execution step count while skipping all preprocessing.
func TestDifferentialPipeline(t *testing.T) {
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		p, err := plan.Compile(q)
		if err != nil {
			failInstance(t, seed, q, db, "Compile: %v", err)
		}

		// The routed engine alone: preprocessing + enumeration on one counter.
		c1 := &delay.Counter{}
		e1, err := oneShot(p, db, q, c1)
		if err != nil {
			failInstance(t, seed, q, db, "%s: %v", p.EnumerateEngine, err)
		}
		got1 := delay.Collect(e1)
		oneShotSteps := c1.Steps()

		// Explicit pipeline, cold: Bind runs the same preprocessing on the
		// counter, so the grand total must be bit-identical to the engine's.
		c2 := &delay.Counter{}
		pr, err := p.BindCounted(db, c2)
		if err != nil {
			failInstance(t, seed, q, db, "Bind: %v", err)
		}
		bindSteps := c2.Steps()
		e2, err := pr.Enumerate(c2)
		if err != nil {
			failInstance(t, seed, q, db, "Enumerate: %v", err)
		}
		got2 := delay.Collect(e2)
		coldSteps := c2.Steps()
		execSteps := coldSteps - bindSteps

		if !sameAnswers(got1, want) {
			failInstance(t, seed, q, db, "%s %v != oracle %v", p.EnumerateEngine, got1, want)
		}
		if !sameAnswers(got2, want) {
			failInstance(t, seed, q, db, "pipeline enumerate %v != oracle %v", got2, want)
		}
		if oneShotSteps != coldSteps {
			failInstance(t, seed, q, db, "total steps: one-shot %d != pipeline %d", oneShotSteps, coldSteps)
		}

		// Warm path: a fresh cursor over the already-bound spine. The
		// answer sequence and the execution steps must replay exactly;
		// no bind/classification steps may reappear.
		c3 := &delay.Counter{}
		e3, err := pr.Enumerate(c3)
		if err != nil {
			failInstance(t, seed, q, db, "warm Enumerate: %v", err)
		}
		got3 := delay.Collect(e3)
		if !sameSequence(got3, got2) {
			failInstance(t, seed, q, db, "warm enumerate sequence %v != cold %v", got3, got2)
		}
		switch p.EnumerateEngine {
		case plan.EngineConstantDelay, plan.EngineLinearDelay, plan.EngineNeqEnum:
			if c3.Steps() != execSteps {
				failInstance(t, seed, q, db, "warm execution steps %d != cold %d", c3.Steps(), execSteps)
			}
		default:
			// Materializing routes replay a memoized answer list; the warm
			// run must not exceed the cold execution cost.
			if c3.Steps() > execSteps {
				failInstance(t, seed, q, db, "warm steps %d > cold execution steps %d", c3.Steps(), execSteps)
			}
		}

		// Decide and count through the same Prepared agree with the oracle,
		// and decide with the Yannakakis semijoin pass called directly.
		okPipeline, err := pr.Decide(nil)
		if err != nil {
			failInstance(t, seed, q, db, "Decide: %v", err)
		}
		if okPipeline != (len(want) > 0) {
			failInstance(t, seed, q, db, "Decide %v != oracle %v", okPipeline, len(want) > 0)
		}
		okEngine, err := cq.Decide(db, &logic.CQ{Name: q.Name, Atoms: q.Atoms}, nil)
		if err != nil {
			failInstance(t, seed, q, db, "cq.Decide: %v", err)
		}
		if okEngine != okPipeline {
			failInstance(t, seed, q, db, "cq.Decide %v != pipeline %v", okEngine, okPipeline)
		}
		n, err := pr.Count(nil)
		if err != nil {
			failInstance(t, seed, q, db, "Count: %v", err)
		}
		if !n.IsInt64() || n.Int64() != int64(len(want)) {
			failInstance(t, seed, q, db, "Count %s != oracle %d", n, len(want))
		}
	}
}

// TestDifferentialUCQ: unions through the pipeline — short-circuit decide,
// inclusion–exclusion counting, and union enumeration — all agree with the
// brute-force UCQ oracle, and decide with the disjuncts' semijoin passes
// called directly.
func TestDifferentialUCQ(t *testing.T) {
	cfg := qgen.Default()
	for _, seed := range diffSeeds() {
		rng := rand.New(rand.NewSource(seed))
		u := qgen.UCQ(rng, cfg)
		db := qgen.DatabaseForUCQ(rng, cfg, u)
		want, err := oracle.EvalUCQ(db, u)
		if err != nil {
			failInstance(t, seed, u, db, "oracle: %v", err)
		}

		got := false
		for _, d := range u.Disjuncts {
			ok, err := cq.Decide(db, &logic.CQ{Name: d.Name, Atoms: d.Atoms}, nil)
			if err != nil {
				failInstance(t, seed, u, db, "cq.Decide %s: %v", d.Name, err)
			}
			got = got || ok
		}
		if got != (len(want) > 0) {
			failInstance(t, seed, u, db, "cq.Decide over disjuncts %v != oracle %v", got, len(want) > 0)
		}

		p, err := plan.CompileUCQ(u)
		if err != nil {
			failInstance(t, seed, u, db, "CompileUCQ: %v", err)
		}
		pr, err := p.Bind(db)
		if err != nil {
			failInstance(t, seed, u, db, "Bind: %v", err)
		}
		ok, err := pr.Decide(nil)
		if err != nil {
			failInstance(t, seed, u, db, "Decide: %v", err)
		}
		if ok != got {
			failInstance(t, seed, u, db, "pipeline Decide %v != cq.Decide over disjuncts %v", ok, got)
		}
		n, err := pr.Count(nil)
		if err != nil {
			failInstance(t, seed, u, db, "Count: %v", err)
		}
		if !n.IsInt64() || n.Int64() != int64(len(want)) {
			failInstance(t, seed, u, db, "Count %s != oracle %d", n, len(want))
		}
		e, err := pr.Enumerate(nil)
		if err != nil {
			failInstance(t, seed, u, db, "Enumerate: %v", err)
		}
		enum := delay.Collect(e)
		if !sameAnswers(enum, want) {
			failInstance(t, seed, u, db, "enumerate %v != oracle %v", enum, want)
		}
		// Warm union enumeration replays the identical sequence.
		e2, err := pr.Enumerate(nil)
		if err != nil {
			failInstance(t, seed, u, db, "warm Enumerate: %v", err)
		}
		if enum2 := delay.Collect(e2); !sameSequence(enum2, enum) {
			failInstance(t, seed, u, db, "warm union sequence %v != cold %v", enum2, enum)
		}
	}
}

// TestDifferentialRandomAccessPipeline: the Prepared's random-access handle
// matches the oracle on free-connex instances, its count is the counting
// DP's, and a second handle — a fresh view over the same memoized counting
// pass — addresses the same answers at the same positions. Seeds whose
// plan is not constant-delay are skipped, so a full run must still reach
// raFloor seeds, or a generator change could shrink the suite unseen.
func TestDifferentialRandomAccessPipeline(t *testing.T) {
	cfg := qgen.Default()
	ran := 0
	for _, seed := range diffSeeds() {
		rng := rand.New(rand.NewSource(seed))
		q := qgen.FreeConnexCQ(rng, cfg)
		db := qgen.DatabaseFor(rng, cfg, q)
		want, err := oracle.Eval(db, q)
		if err != nil {
			failInstance(t, seed, q, db, "oracle: %v", err)
		}
		p, err := plan.Compile(q)
		if err != nil {
			failInstance(t, seed, q, db, "Compile: %v", err)
		}
		if p.EnumerateEngine != plan.EngineConstantDelay {
			continue // generator rarely emits a non-free-connex corner; skip
		}
		ran++
		pr, err := p.Bind(db)
		if err != nil {
			failInstance(t, seed, q, db, "Bind: %v", err)
		}
		ra, err := pr.NewRandomAccess(nil)
		if err != nil {
			failInstance(t, seed, q, db, "NewRandomAccess: %v", err)
		}
		n := ra.Count()
		if !n.IsInt64() || n.Int64() != int64(len(want)) {
			failInstance(t, seed, q, db, "random access Count %s != oracle %d", n, len(want))
		}
		if dp, err := counting.CountInt(db, q); err != nil || dp != n.String() {
			failInstance(t, seed, q, db, "random access Count %s != counting.CountInt %s (%v)", n, dp, err)
		}
		got := make([]database.Tuple, 0, len(want))
		for i := int64(0); i < n.Int64(); i++ {
			tp, err := ra.GetInt(i)
			if err != nil {
				failInstance(t, seed, q, db, "Get(%d): %v", i, err)
			}
			got = append(got, tp.Clone())
		}
		if !sameAnswers(got, want) {
			failInstance(t, seed, q, db, "random access image %v != oracle %v", got, want)
		}
		ra2, err := pr.NewRandomAccess(nil)
		if err != nil {
			failInstance(t, seed, q, db, "second NewRandomAccess: %v", err)
		}
		for i, tp := range got {
			if tp2, err := ra2.GetInt(int64(i)); err != nil || !tp2.Equal(tp) {
				failInstance(t, seed, q, db, "second handle Get(%d) = %v, %v; first gave %v", i, tp2, err, tp)
			}
		}
	}
	if *seedFlag < 0 && ran < raFloor {
		t.Fatalf("only %d of %d seeds ran a constant-delay plan, want at least %d", ran, numSeeds, raFloor)
	}
}

// raFloor is just under the number of seeds whose generated query
// compiles to a constant-delay plan: all 250 of numSeeds do.
const raFloor = 245
