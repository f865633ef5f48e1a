package plan_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/counting"
	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/qgen"
)

// neqKinds are the three kinds of disequality a free-connex ACQ≠ statement
// can carry, each with the count engine its plan must pick.
var neqKinds = []struct {
	name  string
	count plan.Engine
	floor int // just under the number of the 250 seeds that reach the kind
}{
	{"atom-local", plan.EngineStarSizeCount, 130}, // 134 reach it
	{"free-free", plan.EngineNeqCount, 80},        // 85
	{"deferred", plan.EngineNeqDrain, 100},        // 105
}

// neqInstance adds to the seed's free-connex instance one disequality of
// kind k: between two head variables of one atom (0), between two head
// variables that share no atom (1), or between a head variable and a
// quantified one that share no atom (2). It reports false when the query
// has no such pair.
func neqInstance(seed int64, k int) (*logic.CQ, *database.Database, bool) {
	q, db := qgen.Instance(seed)
	head := map[string]bool{}
	for _, v := range q.Head {
		head[v] = true
	}
	share := func(a, b string) bool {
		for _, at := range q.Atoms {
			hasA, hasB := false, false
			for _, v := range at.Vars() {
				hasA, hasB = hasA || v == a, hasB || v == b
			}
			if hasA && hasB {
				return true
			}
		}
		return false
	}
	for _, a := range q.Head {
		for _, b := range q.Vars() {
			if a == b || head[b] != (k < 2) || share(a, b) != (k == 0) {
				continue
			}
			q.Comparisons = append(q.Comparisons, logic.Comparison{Op: logic.NEQ, L: logic.V(a), R: logic.V(b)})
			return q, db, true
		}
	}
	return nil, nil, false
}

// checkNeqCount compares a statement's Decide and Count with the oracle
// and with counting.CountNeq.
func checkNeqCount(t *testing.T, seed int64, what string, pr *plan.Prepared, q *logic.CQ, db *database.Database) {
	t.Helper()
	want, err := oracle.Eval(db, q)
	if err != nil {
		failInstance(t, seed, q, db, "%s: oracle: %v", what, err)
	}
	ok, err := pr.Decide(nil)
	if err != nil || ok != (len(want) > 0) {
		failInstance(t, seed, q, db, "%s: Decide = %v, %v; oracle %v", what, ok, err, len(want) > 0)
	}
	n, err := pr.Count(nil)
	if err != nil || !n.IsInt64() || n.Int64() != int64(len(want)) {
		failInstance(t, seed, q, db, "%s: Count = %v, %v; oracle %d", what, n, err, len(want))
	}
	if ref, err := counting.CountNeq(db, q); err != nil || ref.Cmp(n) != 0 {
		failInstance(t, seed, q, db, "%s: Count = %s; counting.CountNeq %v, %v", what, n, ref, err)
	}
}

// TestDifferentialNeqPipeline: on every seed and each kind of disequality
// the seed's instance admits, the ACQ≠ statement's Decide and Count agree
// with the oracle and with counting.CountNeq on a fresh bind and again
// after a Refresh that follows a mutation of a relation it reads. A full
// run must reach each kind's floor, or a generator change could shrink the
// suite unseen.
func TestDifferentialNeqPipeline(t *testing.T) {
	for k, kind := range neqKinds {
		t.Run(kind.name, func(t *testing.T) {
			ran := 0
			for _, seed := range diffSeeds() {
				q, db, ok := neqInstance(seed, k)
				if !ok {
					continue
				}
				ran++
				p, err := plan.Compile(q)
				if err != nil {
					failInstance(t, seed, q, db, "Compile: %v", err)
				}
				if p.EnumerateEngine != plan.EngineNeqEnum || p.CountEngine != kind.count {
					failInstance(t, seed, q, db, "engines %s/%s, want %s/%s", p.CountEngine, p.EnumerateEngine, kind.count, plan.EngineNeqEnum)
				}
				pr, err := p.Bind(db)
				if err != nil {
					failInstance(t, seed, q, db, "Bind: %v", err)
				}
				checkNeqCount(t, seed, "fresh bind", pr, q, db)

				rel := db.Relation(q.Atoms[0].Pred)
				if rel.Len() > 0 {
					rel.Delete(rel.Tuples[0].Clone())
				}
				diag := make(database.Tuple, rel.Arity)
				for i := range diag {
					diag[i] = database.Value(seed % 5)
				}
				rel.Insert(diag)
				if _, err := pr.Refresh(nil); err != nil {
					failInstance(t, seed, q, db, "Refresh: %v", err)
				}
				checkNeqCount(t, seed, "after refresh", pr, q, db)
			}
			t.Logf("%d of %d seeds ran", ran, numSeeds)
			if *seedFlag < 0 && ran < kind.floor {
				t.Fatalf("only %d of %d seeds admit a %s disequality, want at least %d", ran, numSeeds, kind.name, kind.floor)
			}
		})
	}
}

// edgesDB holds n edges i → i·7 mod n and the label of every even node.
func edgesDB(n int) *database.Database {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	l := database.NewRelation("L", 1)
	for i := 0; i < n; i++ {
		e.InsertValues(database.Value(i), database.Value((i*7)%n))
		if i%2 == 0 {
			l.InsertValues(database.Value(i))
		}
	}
	db.AddRelation(e)
	db.AddRelation(l)
	return db
}

const neq2Query = "Q(x,y) :- E(x,y), L(y), x != y."

// TestNeqCountAllocs: Count on a bound atom-local statement reads the
// core's counting pass, so it allocates the same, within a small constant,
// at 2¹² and 2¹⁶ edge rows; inclusion–exclusion rebuilt and counted the
// query per row.
func TestNeqCountAllocs(t *testing.T) {
	p, err := plan.Compile(mustCQ(t, neq2Query))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs [2]uint64
	for i, n := range []int{1 << 12, 1 << 16} {
		db := edgesDB(n)
		pr, err := p.Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := pr.Count(nil)
		runtime.ReadMemStats(&after)
		allocs[i] = after.Mallocs - before.Mallocs
		if err != nil {
			t.Fatal(err)
		}
		want, err := counting.CountNeq(db, p.CQ)
		if err != nil || got.Cmp(want) != 0 {
			t.Fatalf("n = %d: Count = %s, counting.CountNeq %v, %v", n, got, want, err)
		}
	}
	t.Logf("Count allocates %d at 2^12 edge rows and %d at 2^16", allocs[0], allocs[1])
	if allocs[1] > allocs[0]+8 {
		t.Fatalf("Count allocates %v at 2^12 edge rows and %v at 2^16, want the same within 8", allocs[0], allocs[1])
	}
}

// TestNeqCountRacesResumes runs Count and resumed passes concurrently on
// one ACQ≠ statement: both build and read its counting-pass memo. Run it
// under -race.
func TestNeqCountRacesResumes(t *testing.T) {
	db := edgesDB(1 << 10)
	p, err := plan.Compile(mustCQ(t, neq2Query))
	if err != nil {
		t.Fatal(err)
	}
	want, err := counting.CountNeq(db, p.CQ)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		pr, err := p.Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 0 {
					if n, err := pr.Count(nil); err != nil || n.Cmp(want) != 0 {
						t.Errorf("Count = %v, %v; want %s", n, err, want)
					}
					return
				}
				e, err := pr.EnumerateFrom(context.Background(), nil, offsetPos(uint64(g*17)))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 4; i++ {
					e.Next()
				}
			}(g)
		}
		wg.Wait()
	}
}
