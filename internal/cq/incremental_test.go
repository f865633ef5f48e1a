package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic/logictest"
)

// deltaTracker snapshots per-relation generations and collects the delta
// logs since the last snapshot — the same protocol plan.Prepared.Refresh
// uses.
type deltaTracker struct {
	db   *database.Database
	gens map[string]uint64
}

func trackDeltas(db *database.Database) *deltaTracker {
	dt := &deltaTracker{db: db, gens: make(map[string]uint64)}
	for _, name := range db.Names() {
		r := db.Relation(name)
		r.EnableDeltaLog()
		dt.gens[name] = r.Generation()
	}
	return dt
}

func (dt *deltaTracker) collect(t *testing.T) map[string]database.Delta {
	t.Helper()
	out := make(map[string]database.Delta)
	for _, name := range dt.db.Names() {
		r := dt.db.Relation(name)
		d, ok := r.DeltaSince(dt.gens[name])
		if !ok {
			t.Fatalf("delta for %s unavailable", name)
		}
		out[name] = d
		dt.gens[name] = r.Generation()
	}
	return out
}

// mutateRandom applies one random single-tuple mutation to a relation the
// query reads: mostly inserts (sometimes duplicates of present tuples),
// otherwise deletes of present tuples.
func mutateRandom(rng *rand.Rand, db *database.Database, preds []string, domSize int) {
	r := db.Relation(preds[rng.Intn(len(preds))])
	roll := rng.Intn(10)
	switch {
	case roll < 5 || r.Len() == 0:
		tp := make(database.Tuple, r.Arity)
		for j := range tp {
			tp[j] = database.Value(rng.Intn(domSize) + 1)
		}
		r.Insert(tp)
	case roll < 7:
		// Duplicate occurrence of a present tuple: the multiset counters
		// must absorb it without changing any answer set.
		r.Insert(r.Tuples[rng.Intn(r.Len())].Clone())
	default:
		r.Delete(r.Tuples[rng.Intn(r.Len())].Clone())
	}
}

// TestConstRefresherDifferential: a ConstRefresher-maintained core,
// patched through random insert/duplicate/delete sequences, answers
// exactly like a core freshly prepared over the mutated database. When
// Apply declines a delta the refresher is rebuilt — the same protocol the
// plan layer follows.
func TestConstRefresherDifferential(t *testing.T) {
	applied, rebuilt := 0, 0
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := randomACQ(rng)
		if len(q.Head) == 0 {
			continue
		}
		db := randomDB(rng, q, 6, 12)
		if _, err := PrepareConstantDelay(db, q, nil); err != nil {
			continue // not free-connex (or unsupported shape): no core to maintain
		}
		var preds []string
		seen := map[string]bool{}
		for _, a := range q.Atoms {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				preds = append(preds, a.Pred)
			}
		}
		cr, core, err := NewConstRefresher(db, q)
		if err != nil {
			t.Fatalf("seed %d: NewConstRefresher: %v", seed, err)
		}
		// The built core must already agree with a one-shot prepare.
		checkCore := func(step int) {
			t.Helper()
			// The patched core — tombstoned slab rows, swap-removed root,
			// relocated buckets — must still count and seek in its own
			// enumeration order.
			got := checkSeek(t, fmt.Sprintf("seed %d step %d (query %v)", seed, step, q), core)
			fresh, err := PrepareConstantDelay(db, q, nil)
			if err != nil {
				t.Fatalf("seed %d step %d: fresh prepare: %v", seed, step, err)
			}
			want := delay.Collect(fresh.Cursor(nil))
			equalAnswerSets(t, fmt.Sprintf("seed %d step %d (query %v)", seed, step, q), got, want)
			if core.NonEmpty() != (len(want) > 0) {
				t.Fatalf("seed %d step %d: NonEmpty() = %v with %d answers", seed, step, core.NonEmpty(), len(want))
			}
		}
		checkCore(-1)
		dt := trackDeltas(db)
		for step := 0; step < 10; step++ {
			mutateRandom(rng, db, preds, 6)
			deltas := dt.collect(t)
			if cr.Apply(deltas) {
				applied++
			} else {
				rebuilt++
				cr, core, err = NewConstRefresher(db, q)
				if err != nil {
					t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
				}
			}
			checkCore(step)
		}
	}
	if applied == 0 {
		t.Fatal("no mutation was ever applied incrementally; the refresher always fell back")
	}
	t.Logf("const refresher: %d deltas applied incrementally, %d rebuilds", applied, rebuilt)
}

// TestLinearRefresherDifferential: same protocol for the linear-delay
// spine, over arbitrary acyclic queries (including boolean ones). The
// enumeration SEQUENCE must match a fresh prepare exactly: the linear
// route orders outputs by sorted candidate values, which depend only on
// the reduced sets.
func TestLinearRefresherDifferential(t *testing.T) {
	applied := 0
	for seed := int64(100); seed < 170; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := randomACQ(rng)
		db := randomDB(rng, q, 6, 12)
		var preds []string
		seen := map[string]bool{}
		for _, a := range q.Atoms {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				preds = append(preds, a.Pred)
			}
		}
		lr, lp, err := NewLinearRefresher(db, q)
		if err != nil {
			t.Fatalf("seed %d: NewLinearRefresher: %v", seed, err)
		}
		check := func(step int) {
			t.Helper()
			got := delay.Collect(lp.Enumerate(nil))
			fresh, err := PrepareLinearDelay(db, q, nil)
			if err != nil {
				t.Fatalf("seed %d step %d: fresh prepare: %v", seed, step, err)
			}
			want := delay.Collect(fresh.Enumerate(nil))
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d (query %v): %d answers, want %d", seed, step, q, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("seed %d step %d: answer %d = %v, want %v", seed, step, i, got[i], want[i])
				}
			}
			if lp.NonEmpty() != fresh.NonEmpty() {
				t.Fatalf("seed %d step %d: NonEmpty() = %v, fresh says %v", seed, step, lp.NonEmpty(), fresh.NonEmpty())
			}
		}
		check(-1)
		dt := trackDeltas(db)
		for step := 0; step < 10; step++ {
			mutateRandom(rng, db, preds, 6)
			deltas := dt.collect(t)
			if lr.Apply(deltas) {
				applied++
			} else {
				lr, lp, err = NewLinearRefresher(db, q)
				if err != nil {
					t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
				}
			}
			check(step)
		}
	}
	if applied == 0 {
		t.Fatal("no mutation was ever applied incrementally")
	}
}

// TestConstRefresherSelfJoin: self-joins give each atom occurrence its
// own pipeline node fed by the same base relation; one base delta must
// reach both.
func TestConstRefresherSelfJoin(t *testing.T) {
	q := logictest.MustParseCQ("Q(x,y) :- E(x,y), E(y,z).")
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	for i := 0; i < 6; i++ {
		e.InsertValues(database.Value(i), database.Value(i+1))
	}
	e.Dedup()
	db.AddRelation(e)

	cr, core, err := NewConstRefresher(db, q)
	if err != nil {
		t.Fatal(err)
	}
	dt := trackDeltas(db)
	// (6,0) closes a cycle: both atom occurrences gain matches.
	e.Insert(database.Tuple{6, 0})
	if !cr.Apply(dt.collect(t)) {
		t.Fatal("Apply declined a single-tuple insert")
	}
	got := delay.Collect(core.Cursor(nil))
	fresh, err := PrepareConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalAnswerSets(t, "self-join after insert", got, delay.Collect(fresh.Cursor(nil)))

	e.Delete(database.Tuple{2, 3})
	if !cr.Apply(dt.collect(t)) {
		t.Fatal("Apply declined a single-tuple delete")
	}
	got = delay.Collect(core.Cursor(nil))
	fresh, err = PrepareConstantDelay(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalAnswerSets(t, "self-join after delete", got, delay.Collect(fresh.Cursor(nil)))
}

// stateRows totals the source rows tracked by every node of the reducer.
func (rd *reducer) stateRows() int {
	n := 0
	for _, ly := range []*layer{rd.elim, rd.up, rd.fin} {
		if ly == nil {
			continue
		}
		for _, nd := range ly.nodes {
			if nd != nil {
				n += len(nd.src)
			}
		}
	}
	return n
}

// chainAB is A(i,i+1), B(i,i+1) for i < n: every A tuple joins one B tuple.
func chainAB(n int) *database.Database {
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	b := database.NewRelation("B", 2)
	for i := 0; i < n; i++ {
		a.InsertValues(database.Value(i), database.Value(i+1))
		b.InsertValues(database.Value(i), database.Value(i+1))
	}
	db.AddRelation(a)
	db.AddRelation(b)
	return db
}

// TestRefresherStateBounded is the regression test for the refresher state
// leak: a tuple that joins nothing never reaches the reduced parts, so the
// budget — which counted part rows only — never saw it, while the rows it
// left behind in the nodes' source maps (a count of 0 is never unlinked)
// grew with every round. Every tuple fed is charged now: Apply declines
// within limit/2 rounds of a build, and the caller's rebuild brings node
// state back to base size.
func TestRefresherStateBounded(t *testing.T) {
	type refresher interface {
		Apply(map[string]database.Delta) bool
	}
	for _, tc := range []struct {
		name  string
		build func(*database.Database, *testing.T) (refresher, *reducer)
	}{
		{"const", func(db *database.Database, t *testing.T) (refresher, *reducer) {
			cr, _, err := NewConstRefresher(db, logictest.MustParseCQ("Q(x,y,z) :- A(x,y), B(y,z)."))
			if err != nil {
				t.Fatal(err)
			}
			return cr, cr.rd
		}},
		{"linear", func(db *database.Database, t *testing.T) (refresher, *reducer) {
			lr, _, err := NewLinearRefresher(db, logictest.MustParseCQ("Q(x,z) :- A(x,y), B(y,z)."))
			if err != nil {
				t.Fatal(err)
			}
			return lr, lr.rd
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := chainAB(200)
			a := db.Relation("A")
			r, rd := tc.build(db, t)
			base := rd.stateRows()
			dt := trackDeltas(db)
			const rounds = 20000
			rebuilds, sinceBuild, peak := 0, 0, 0
			apply := func() {
				if r.Apply(dt.collect(t)) {
					return
				}
				// The caller's protocol: discard and rebuild.
				r, rd = tc.build(db, t)
				rebuilds++
				sinceBuild = 0
			}
			for round := 0; round < rounds; round++ {
				// y = 10⁶+round occurs in no B tuple: the tuple joins nothing.
				tup := database.Tuple{database.Value(-1 - round), database.Value(1_000_000 + round)}
				a.Insert(tup)
				apply()
				if !a.Delete(tup) {
					t.Fatalf("round %d: delete missed", round)
				}
				apply()
				sinceBuild++
				if n := rd.stateRows(); n > peak {
					peak = n
				}
				if sinceBuild == 1 && rebuilds > 0 {
					// First full round after a rebuild: at most this round's
					// own tuple is tracked beyond the base.
					if n := rd.stateRows(); n > base+3 {
						t.Fatalf("round %d: %d node rows after a rebuild, base %d", round, n, base)
					}
				}
				if 2*sinceBuild > rd.limit+4 {
					t.Fatalf("round %d: %d rounds since the last build and Apply still accepts (limit %d, spent %d)",
						round, sinceBuild, rd.limit, rd.spent)
				}
			}
			if rebuilds == 0 {
				t.Fatalf("Apply never declined in %d rounds: the budget does not see tuples that join nothing", rounds)
			}
			// One round leaves at most one dead row per layer.
			if bound := base + 3*(rd.limit/2+3); peak > bound {
				t.Fatalf("node state peaked at %d rows, bound %d (base %d)", peak, bound, base)
			}
			t.Logf("base %d rows, limit %d, peak %d, %d rebuilds in %d rounds", base, rd.limit, peak, rebuilds, rounds)
		})
	}
}

// TestSpineSlabsBoundedByBudget: delete/reinsert churn of tuples that DO
// join tombstones one slab row per delete and appends one per reinsert.
// Nothing compacts a bound spine in place; the budget rebuild is what
// bounds the slabs, at 1.5 × base + 1024 rows each, and the enumeration
// agrees with a fresh prepare on both sides of every rebuild.
func TestSpineSlabsBoundedByBudget(t *testing.T) {
	const base = 600
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	db := chainAB(base)
	a := db.Relation("A")
	cr, core, err := NewConstRefresher(db, q)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		got := checkSeek(t, what, core)
		fresh, err := PrepareConstantDelay(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalAnswerSets(t, what, got, delay.Collect(fresh.Cursor(nil)))
	}
	dt := trackDeltas(db)
	rebuilds, peak := 0, 0
	for round := 0; round < 6000; round++ {
		i := (round / 2) % base
		tup := database.Tuple{database.Value(i), database.Value(i + 1)}
		if round%2 == 0 {
			if !a.Delete(tup) {
				t.Fatalf("round %d: delete missed", round)
			}
		} else {
			a.Insert(tup)
		}
		deltas := dt.collect(t)
		if !cr.Apply(deltas) {
			// The declined core is still the previous round's: the budget
			// check comes before any patching.
			if cr, core, err = NewConstRefresher(db, q); err != nil {
				t.Fatal(err)
			}
			rebuilds++
			check(fmt.Sprintf("round %d, after the budget rebuild", round))
		} else if cr.rd.spent > cr.rd.limit {
			check(fmt.Sprintf("round %d, last delta before the budget rebuild", round))
		}
		for j := range core.slabs {
			if n := core.slabs[j].Len(); n > peak {
				peak = n
			}
		}
	}
	if rebuilds < 2 {
		t.Fatalf("%d budget rebuilds in 6000 rounds, want several", rebuilds)
	}
	if bound := base*3/2 + 1024; peak > bound {
		t.Fatalf("a spine slab reached %d rows, bound %d", peak, bound)
	}
	check("final")
	t.Logf("peak slab %d rows over base %d, %d rebuilds", peak, base, rebuilds)
}
