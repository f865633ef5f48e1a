package plan_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/qgen"
)

// TestRefreshKinds walks a Prepared through the refresh state machine: a
// clean statement is a noop; the first mutation forces an in-place rebuild
// (which installs the incremental refreshers); from then on single-tuple
// inserts and deletes are absorbed as deltas; a delta larger than the
// rebuild threshold falls back to another rebuild — and the answers track
// the database at every step.
func TestRefreshKinds(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := chainDB(40)
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.EnumerateEngine != plan.EngineConstantDelay {
		t.Fatalf("expected the constant-delay route, got %v", p.EnumerateEngine)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}

	check := func(what string, wantKind plan.RefreshKind) {
		t.Helper()
		kind, err := pr.Refresh(nil)
		if err != nil {
			t.Fatalf("%s: Refresh: %v", what, err)
		}
		if kind != wantKind {
			t.Fatalf("%s: RefreshKind = %v, want %v", what, kind, wantKind)
		}
		if pr.Stale() {
			t.Fatalf("%s: still stale after Refresh", what)
		}
		e, err := pr.Enumerate(nil)
		if err != nil {
			t.Fatalf("%s: Enumerate: %v", what, err)
		}
		got := delay.Collect(e)
		want, err := oracle.Eval(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("%s: answers %v, oracle says %v", what, got, want)
		}
		ok, err := pr.Decide(nil)
		if err != nil || ok != (len(want) > 0) {
			t.Fatalf("%s: Decide = %v/%v, oracle has %d answers", what, ok, err, len(want))
		}
	}

	check("clean statement", plan.RefreshNoop)

	db.Relation("A").Insert(database.Tuple{900, 1})
	check("first mutation", plan.RefreshRebind)

	db.Relation("A").Insert(database.Tuple{901, 2})
	check("single insert", plan.RefreshDelta)

	if !db.Relation("A").Delete(database.Tuple{901, 2}) {
		t.Fatal("Delete removed nothing")
	}
	check("single delete", plan.RefreshDelta)

	db.Relation("B").Insert(database.Tuple{1, 99})
	check("insert on the other relation", plan.RefreshDelta)

	batch := make([]database.Tuple, 200)
	for i := range batch {
		batch[i] = database.Tuple{database.Value(2000 + i), 1}
	}
	if err := db.Relation("A").InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	check("oversized batch", plan.RefreshRebind)

	db.Relation("A").Insert(database.Tuple{903, 4})
	check("delta after the rebuild", plan.RefreshDelta)
}

// TestRefreshNonSpineRoutes: routes that bind nothing eagerly (UCQ plans
// and materializing fallbacks) refresh by dropping their memos — the kind
// is RefreshDelta and re-execution sees the new data.
func TestRefreshUCQ(t *testing.T) {
	u := mustUCQ(t, "Q(x) :- A(x,y); Q(x) :- B(x,y).")
	db := chainDB(10)
	p, err := plan.CompileUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := pr.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := len(delay.Collect(e))
	db.Relation("A").Insert(database.Tuple{500, 1})
	kind, err := pr.Refresh(nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind != plan.RefreshDelta {
		t.Fatalf("UCQ refresh kind = %v, want %v", kind, plan.RefreshDelta)
	}
	e2, err := pr.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if after := len(delay.Collect(e2)); after != before+1 {
		t.Fatalf("answers after refresh = %d, want %d", after, before+1)
	}
}

// TestDifferentialRefreshReplay is the oracle mutation-replay suite: on
// every seeded instance a bound statement survives a replayable script of
// random single-tuple mutations (inserts, duplicate inserts, deletes,
// absent deletes) through Refresh, and after every step its enumerate /
// decide / count agree with the brute-force oracle AND with a freshly
// bound statement — including the counted execution steps, which must be
// bit-identical to the fresh bind's (the refresh machinery may never leak
// steps into enumeration).
func TestDifferentialRefreshReplay(t *testing.T) {
	cfg := qgen.Default()
	var deltas, rebinds, noops int
	for _, seed := range diffSeeds() {
		q, db := qgen.Instance(seed)
		p, err := plan.Compile(q)
		if err != nil {
			failInstance(t, seed, q, db, "Compile: %v", err)
		}
		pr, err := p.Bind(db)
		if err != nil {
			failInstance(t, seed, q, db, "Bind: %v", err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		script := qgen.MutationScript(rng, cfg, db, 8)
		for step, m := range script {
			if err := m.Apply(db); err != nil {
				failInstance(t, seed, q, db, "step %d (%s): Apply: %v", step, m, err)
			}
			kind, err := pr.Refresh(nil)
			if err != nil {
				failInstance(t, seed, q, db, "step %d (%s): Refresh: %v", step, m, err)
			}
			switch kind {
			case plan.RefreshDelta:
				deltas++
			case plan.RefreshRebind:
				rebinds++
			case plan.RefreshNoop:
				noops++
				if pr.Stale() {
					failInstance(t, seed, q, db, "step %d (%s): noop refresh left the plan stale", step, m)
				}
			}

			want, err := oracle.Eval(db, q)
			if err != nil {
				failInstance(t, seed, q, db, "step %d: oracle: %v", step, err)
			}

			// Fresh bind over the mutated database: the reference for both
			// answers and counted execution steps.
			cFresh := &delay.Counter{}
			fresh, err := p.BindCounted(db, cFresh)
			if err != nil {
				failInstance(t, seed, q, db, "step %d: fresh Bind: %v", step, err)
			}
			bindSteps := cFresh.Steps()
			eFresh, err := fresh.Enumerate(cFresh)
			if err != nil {
				failInstance(t, seed, q, db, "step %d: fresh Enumerate: %v", step, err)
			}
			freshRows := delay.Collect(eFresh)
			freshExec := cFresh.Steps() - bindSteps

			cRef := &delay.Counter{}
			eRef, err := pr.Enumerate(cRef)
			if err != nil {
				failInstance(t, seed, q, db, "step %d (%s): Enumerate: %v", step, m, err)
			}
			got := delay.Collect(eRef)

			if !sameAnswers(got, want) {
				failInstance(t, seed, q, db, "step %d (%s, %v): refreshed answers %v != oracle %v", step, m, kind, got, want)
			}
			switch p.EnumerateEngine {
			case plan.EngineConstantDelay:
				// The refreshed core may enumerate in a different root order
				// than a fresh bind (set equality is pinned above), but the
				// per-pass step totals must match exactly.
				if cRef.Steps() != freshExec {
					failInstance(t, seed, q, db, "step %d (%s, %v): refreshed exec steps %d != fresh %d", step, m, kind, cRef.Steps(), freshExec)
				}
				// Whatever that order is, one generation has one: random
				// access and resumed enumerations address the patched
				// spine's own sequence, position for position.
				ra, err := pr.NewRandomAccess(nil)
				if err != nil {
					failInstance(t, seed, q, db, "step %d (%s, %v): NewRandomAccess: %v", step, m, kind, err)
				}
				for i, row := range got {
					if tp, err := ra.GetInt(int64(i)); err != nil || !tp.Equal(row) {
						failInstance(t, seed, q, db, "step %d (%s, %v): GetInt(%d) = %v, %v; the stream has %v", step, m, kind, i, tp, err, row)
					}
					e, err := pr.EnumerateFrom(context.Background(), nil, offsetPos(uint64(i)))
					if err != nil {
						failInstance(t, seed, q, db, "step %d (%s, %v): resume at %d: %v", step, m, kind, i, err)
					}
					if rest := delay.Collect(e); !sameSequence(rest, got[i:]) {
						failInstance(t, seed, q, db, "step %d (%s, %v): resume at %d = %v, want the stream's suffix %v", step, m, kind, i, rest, got[i:])
					}
				}
			case plan.EngineLinearDelay, plan.EngineNeqEnum:
				if !sameSequence(got, freshRows) {
					failInstance(t, seed, q, db, "step %d (%s, %v): refreshed sequence %v != fresh %v", step, m, kind, got, freshRows)
				}
				if cRef.Steps() != freshExec {
					failInstance(t, seed, q, db, "step %d (%s, %v): refreshed exec steps %d != fresh %d", step, m, kind, cRef.Steps(), freshExec)
				}
			}

			ok, err := pr.Decide(nil)
			if err != nil {
				failInstance(t, seed, q, db, "step %d: Decide: %v", step, err)
			}
			if ok != (len(want) > 0) {
				failInstance(t, seed, q, db, "step %d (%s): Decide = %v, oracle has %d answers", step, m, ok, len(want))
			}
			n, err := pr.Count(nil)
			if err != nil {
				failInstance(t, seed, q, db, "step %d: Count: %v", step, err)
			}
			if !n.IsInt64() || n.Int64() != int64(len(want)) {
				failInstance(t, seed, q, db, "step %d (%s): Count = %s, oracle %d", step, m, n, len(want))
			}
		}
	}
	if deltas == 0 {
		t.Fatal("no mutation in the whole sweep was absorbed incrementally")
	}
	t.Logf("refresh replay: %d deltas, %d rebinds, %d noops", deltas, rebinds, noops)
}
