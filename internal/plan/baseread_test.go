package plan_test

// Binding reads the base relations and never writes them: plain atoms share
// the base's rows (database.Relation.SortedView), so a bind that reordered,
// deduplicated or re-flagged a base relation would corrupt every other
// statement bound over it. These tests bind concurrently on every engine
// route and check that the bases come out exactly as they went in.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/snapshot"
)

// routeStatement is one statement per engine route, with the enumerate
// engine Compile must pick for it.
type routeStatement struct {
	src   string
	union bool
	enum  plan.Engine
}

var routeStatements = []routeStatement{
	{src: "Q(x,y) :- A(x,y), B(y,z).", enum: plan.EngineConstantDelay},
	{src: "Q(x,y) :- A(x,z), B(z,y).", enum: plan.EngineLinearDelay},
	{src: "Q(x,y) :- E(x,y), L(y), x != y.", enum: plan.EngineNeqEnum},
	{src: "Q(x,z) :- E(x,y), F(y,z), x != z.", enum: plan.EngineBacktrack},
	{src: "Q(x) :- E(x,y), x < y.", enum: plan.EngineBacktrack},
	{src: "Q() :- E(x,y), F(y,z), G(z,x).", enum: plan.EngineBacktrack},
	{src: "Q(x) :- R(x,y), !S(y,x).", enum: plan.EngineBacktrack},
	{src: "Q() :- !R(x,y), !S(y,z).", enum: plan.EngineBacktrack},
	{src: "Q(x) :- A(x,y); Q(x) :- B(x,y).", union: true, enum: plan.EngineUnionExtension},
	{src: "Q(x,y) :- A(x,z), B(z,y); Q(x,y) :- E(x,y).", union: true, enum: plan.EngineUnionMaterialize},
}

func compileRoute(t *testing.T, rs routeStatement) *plan.Plan {
	t.Helper()
	var p *plan.Plan
	var err error
	if rs.union {
		p, err = plan.CompileUCQ(mustUCQ(t, rs.src))
	} else {
		p, err = plan.Compile(mustCQ(t, rs.src))
	}
	if err != nil {
		t.Fatalf("%s: %v", rs.src, err)
	}
	if p.EnumerateEngine != rs.enum {
		t.Fatalf("%s: enumerate engine %s, want %s", rs.src, p.EnumerateEngine, rs.enum)
	}
	return p
}

// routeDB draws every relation the route statements read. E is left in
// insertion order (duplicate-free but unsorted) so the copying atom path
// runs beside the shared one.
func routeDB(seed int64) *database.Database {
	rng := rand.New(rand.NewSource(seed))
	db := database.NewDatabase()
	for _, name := range []string{"A", "B", "E", "F", "G", "L", "R", "S", "T"} {
		arity := 2
		if name == "L" {
			arity = 1
		}
		r := database.NewRelation(name, arity)
		seen := map[string]bool{}
		for i := 0; i < 40; i++ {
			t := make(database.Tuple, arity)
			for j := range t {
				t[j] = database.Value(1 + rng.Intn(12))
			}
			if k := t.String(); !seen[k] {
				seen[k] = true
				r.Insert(t)
			}
		}
		if name != "E" {
			r.Dedup()
		}
		db.AddRelation(r)
	}
	return db
}

// baseState is what a read must leave untouched in one relation.
type baseState struct {
	gen    uint64
	sorted bool
	rows   []database.Tuple
}

func captureBases(db *database.Database) map[string]baseState {
	out := map[string]baseState{}
	for _, name := range db.Names() {
		r := db.Relation(name)
		rows := make([]database.Tuple, len(r.Tuples))
		for i, t := range r.Tuples {
			rows[i] = t.Clone()
		}
		out[name] = baseState{gen: r.Generation(), sorted: r.Sorted(), rows: rows}
	}
	return out
}

func checkBases(t *testing.T, db *database.Database, want map[string]baseState) {
	t.Helper()
	for name, w := range want {
		r := db.Relation(name)
		if g := r.Generation(); g != w.gen {
			t.Errorf("%s: generation %d after binding, was %d", name, g, w.gen)
		}
		if s := r.Sorted(); s != w.sorted {
			t.Errorf("%s: sorted flag %v after binding, was %v", name, s, w.sorted)
		}
		if len(r.Tuples) != len(w.rows) {
			t.Errorf("%s: %d rows after binding, was %d", name, len(r.Tuples), len(w.rows))
			continue
		}
		for i, row := range r.Tuples {
			if !row.Equal(w.rows[i]) {
				t.Errorf("%s: row %d is %v after binding, was %v", name, i, row, w.rows[i])
				break
			}
		}
	}
}

// checkRoute runs all three tasks of a bound statement against the oracle.
func checkRoute(db *database.Database, p *plan.Plan, pr *plan.Prepared) error {
	var want []database.Tuple
	var err error
	src := fmt.Sprint(p.CQ)
	if p.UCQ != nil {
		src = fmt.Sprint(p.UCQ)
		want, err = oracle.EvalUCQ(db, p.UCQ)
	} else {
		want, err = oracle.Eval(db, p.CQ)
	}
	if err != nil {
		return err
	}
	ok, err := pr.Decide(nil)
	if err != nil || ok != (len(want) > 0) {
		return fmt.Errorf("%s: decide %v (%v), oracle %d answers", src, ok, err, len(want))
	}
	n, err := pr.Count(nil)
	if err != nil || n.Int64() != int64(len(want)) {
		return fmt.Errorf("%s: count %v (%v), oracle %d", src, n, err, len(want))
	}
	e, err := pr.Enumerate(nil)
	if err != nil {
		return fmt.Errorf("%s: enumerate: %v", src, err)
	}
	if got := delay.Collect(e); !sameAnswers(got, want) {
		return fmt.Errorf("%s: answers %v, oracle %v", src, got, want)
	}
	return nil
}

func TestBindNeverWritesBase(t *testing.T) {
	heap := routeDB(11)
	path := filepath.Join(t.TempDir(), "routes.snap")
	if err := snapshot.WriteFile(path, heap, nil, nil); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, backing := range []struct {
		name string
		db   *database.Database
	}{{"heap", heap}, {"mmap", s.Database()}} {
		t.Run(backing.name, func(t *testing.T) {
			db := backing.db
			plans := make([]*plan.Plan, len(routeStatements))
			for i, rs := range routeStatements {
				plans[i] = compileRoute(t, rs)
			}
			before := captureBases(db)

			// Eight goroutines bind and run every route at once.
			const workers = 8
			bound := make([]*plan.Prepared, len(plans)) // worker 0's, refreshed below
			var wg sync.WaitGroup
			errs := make(chan error, workers*len(plans))
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := range plans {
						i := (k + w) % len(plans)
						pr, err := plans[i].Bind(db)
						if err == nil {
							err = checkRoute(db, plans[i], pr)
						}
						if err != nil {
							errs <- err
							return
						}
						if w == 0 {
							bound[i] = pr
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				return
			}
			checkBases(t, db, before)

			// Mutate the bases under the bound plans: each must refresh to
			// the oracle's answers over the new contents.
			db.Relation("A").Insert(database.Tuple{13, 14})
			db.Relation("B").Insert(database.Tuple{14, 1})
			db.Relation("E").Delete(db.Relation("E").Tuples[0].Clone())
			db.Relation("L").Insert(database.Tuple{14})
			db.Relation("S").Delete(db.Relation("S").Tuples[3].Clone())
			for i, pr := range bound {
				if _, err := pr.Refresh(nil); err != nil {
					t.Fatalf("%s: refresh: %v", routeStatements[i].src, err)
				}
				if err := checkRoute(db, plans[i], pr); err != nil {
					t.Errorf("after refresh: %v", err)
				}
			}

			// That refresh installed the incremental refreshers, so the
			// next small delta is patched into the statements' own
			// relations (the linear-delay route deletes from and inserts
			// into them). The bases must come out as they went in.
			db.Relation("A").Delete(db.Relation("A").Tuples[5].Clone())
			db.Relation("A").Insert(database.Tuple{14, 3})
			db.Relation("B").Delete(db.Relation("B").Tuples[2].Clone())
			mutated := captureBases(db)
			for i, pr := range bound {
				kind, err := pr.Refresh(nil)
				if err != nil {
					t.Fatalf("%s: second refresh: %v", routeStatements[i].src, err)
				}
				if routeStatements[i].enum == plan.EngineLinearDelay && kind != plan.RefreshDelta {
					t.Errorf("%s: second refresh %v, want a delta refresh", routeStatements[i].src, kind)
				}
				if err := checkRoute(db, plans[i], pr); err != nil {
					t.Errorf("after the second refresh: %v", err)
				}
			}
			checkBases(t, db, mutated)
		})
	}
}

// A Sort()ed relation keeps its duplicates and its sorted flag, and a
// snapshot persists both; the shared-rows path must still see each row once.
func TestSortedDuplicatesCountOnce(t *testing.T) {
	r := database.NewRelation("r", 2)
	for _, row := range []database.Tuple{{2, 1}, {1, 2}, {2, 1}, {1, 1}} {
		r.Insert(row)
	}
	r.Sort()
	if !r.Sorted() || r.Len() != 4 {
		t.Fatalf("Sort: sorted=%v len=%d, want a sorted relation with its duplicate", r.Sorted(), r.Len())
	}
	heap := database.NewDatabase()
	heap.AddRelation(r)
	path := filepath.Join(t.TempDir(), "dup.snap")
	if err := snapshot.WriteFile(path, heap, nil, nil); err != nil {
		t.Fatal(err)
	}
	read, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	q := mustCQ(t, "Q(x,y) :- r(x,y).")
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	path2 := mustCQ(t, "Q(x,y,z) :- r(x,y), r(y,z).")
	p2, err := plan.Compile(path2)
	if err != nil {
		t.Fatal(err)
	}
	want := []database.Tuple{{1, 1}, {1, 2}, {2, 1}}
	for _, backing := range []struct {
		name string
		db   *database.Database
	}{{"heap", heap}, {"read", read.Database()}, {"mmap", mapped.Database()}} {
		if rr := backing.db.Relation("r"); !rr.Sorted() || rr.Len() != 4 {
			t.Fatalf("%s: sorted=%v len=%d, want the sorted duplicate restored", backing.name, rr.Sorted(), rr.Len())
		}
		atom, err := cq.AtomRelation(backing.db, q.Atoms[0])
		if err != nil {
			t.Fatal(err)
		}
		if !sameSequence(atom.R.Tuples, want) {
			t.Errorf("%s: atom relation %v, want %v", backing.name, atom.R.Tuples, want)
		}
		pr, err := p.Bind(backing.db)
		if err != nil {
			t.Fatal(err)
		}
		n, err := pr.Count(nil)
		if err != nil || n.Int64() != int64(len(want)) {
			t.Errorf("%s: count %v (%v), want %d", backing.name, n, err, len(want))
		}
		e, err := pr.Enumerate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := delay.Collect(e); !sameSequence(got, want) {
			t.Errorf("%s: enumerated %v, want %v", backing.name, got, want)
		}
		pr2, err := p2.Bind(backing.db)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRoute(backing.db, p2, pr2); err != nil {
			t.Errorf("%s: %v", backing.name, err)
		}
	}
}

// TestViewIndexConcurrentBinds: statements bound at once over one
// database share its base relations' indexes (a plain atom's view reads
// its base's index cache), beside a writer that mutates those bases under
// the serving lock discipline — binds and executions hold the read side,
// the writer the write side. Every statement must match the oracle at the
// generation it ran at; run under -race this guards the shared caches.
func TestViewIndexConcurrentBinds(t *testing.T) {
	heap := routeDB(12)
	path := filepath.Join(t.TempDir(), "views.snap")
	if err := snapshot.WriteFile(path, heap, nil, nil); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, backing := range []struct {
		name string
		db   *database.Database
	}{{"heap", heap}, {"mmap", s.Database()}} {
		t.Run(backing.name, func(t *testing.T) {
			db := backing.db
			plans := make([]*plan.Plan, len(routeStatements))
			for i, rs := range routeStatements {
				plans[i] = compileRoute(t, rs)
			}
			var mu sync.RWMutex
			stop := make(chan struct{})
			writer := make(chan struct{})
			go func() {
				defer close(writer)
				a, b := db.Relation("A"), db.Relation("B")
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					row := database.Tuple{database.Value(20 + i%5), database.Value(1 + i%12)}
					mu.Lock()
					if i%2 == 0 {
						a.Insert(row)
						b.Insert(database.Tuple{row[1], row[0]})
					} else {
						a.Delete(database.Tuple{database.Value(20 + (i-1)%5), database.Value(1 + (i-1)%12)})
						a.Dedup()
					}
					mu.Unlock()
					time.Sleep(200 * time.Microsecond)
				}
			}()

			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := 0; k < 3*len(plans); k++ {
						i := (k + w) % len(plans)
						mu.RLock()
						pr, err := plans[i].Bind(db)
						if err == nil {
							err = checkRoute(db, plans[i], pr)
						}
						mu.RUnlock()
						if err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			<-writer
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
