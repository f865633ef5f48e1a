package plan_test

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/oracle"
	"repro/internal/plan"
)

// countSpans is a delay.Sink that counts "count" phase spans: every counting
// engine — the spine's counting pass and the star-size DP alike — opens one,
// and a memo hit opens none, so it is a call counter for them.
type countSpans struct{ n atomic.Int64 }

func (*countSpans) ObserveDelay(int64, int64) {}
func (s *countSpans) ObserveSpan(phase string, _, _ int64, _, _ time.Time) {
	if phase == "count" {
		s.n.Add(1)
	}
}

// pairsDB holds two disjoint edge/label pairs: statements over one never
// read the other.
func pairsDB() *database.Database {
	db := database.NewDatabase()
	for _, sfx := range []string{"a", "b"} {
		e := database.NewRelation("edge_"+sfx, 2)
		l := database.NewRelation("label_"+sfx, 1)
		for i := 0; i < 64; i++ {
			e.InsertValues(database.Value(i), database.Value((i*7)%64))
			if i%2 == 0 {
				l.InsertValues(database.Value(i))
			}
		}
		db.AddRelation(e)
		db.AddRelation(l)
	}
	return db
}

// TestBystanderKeepsMemos: a mutation outside a statement's read set moves
// the database generation, but the refresh that adopts it is a noop that
// keeps the count, decide and counting-pass memos (no engine runs again);
// a mutation inside the read set still drops every one of them.
func TestBystanderKeepsMemos(t *testing.T) {
	db := pairsDB()
	cache := plan.NewCache()
	bystander := mustCQ(t, "Q(x,y) :- edge_b(x,y), label_b(y).")
	sink := &countSpans{}
	c := &delay.Counter{}
	c.SetSink(sink)

	probe := func(what string, wantEngineCalls int64) *plan.Prepared {
		t.Helper()
		pr, err := cache.Prepare(bystander, db)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", what, err)
		}
		before := sink.n.Load()
		n, err := pr.Count(c)
		if err != nil {
			t.Fatalf("%s: Count: %v", what, err)
		}
		want, err := oracle.Eval(db, bystander)
		if err != nil {
			t.Fatal(err)
		}
		if n.Cmp(big.NewInt(int64(len(want)))) != 0 {
			t.Fatalf("%s: Count = %s, oracle %d", what, n, len(want))
		}
		if got := sink.n.Load() - before; got != wantEngineCalls {
			t.Fatalf("%s: Count ran %d counting passes, want %d", what, got, wantEngineCalls)
		}
		return pr
	}

	pr := probe("cold", 1)
	probe("warm", 0)

	// Mutate the OTHER pair, repeatedly: inserts, a delete, a new relation.
	db.Relation("edge_a").Insert(database.Tuple{900, 2})
	if probe("after insert on the other pair", 0) != pr {
		t.Fatal("bystander was rebound")
	}
	db.Relation("label_a").Delete(database.Tuple{2})
	db.AddRelation(database.NewRelation("unrelated", 1))
	probe("after delete + AddRelation elsewhere", 0)
	if got := cache.RefreshesOf(plan.RefreshNoop); got != 2 {
		t.Fatalf("noop refreshes = %d, want 2", got)
	}
	if got := cache.Refreshes(); got != 2 {
		t.Fatalf("refreshes = %d, want 2 (all noop)", got)
	}
	// A seek after the noops reuses the memoized counting pass too.
	before := sink.n.Load()
	if _, err := pr.EnumerateAt(context.Background(), c, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.NewRandomAccess(c); err != nil {
		t.Fatal(err)
	}
	if got := sink.n.Load() - before; got != 0 {
		t.Fatalf("seek + random access after noop refreshes ran %d counting passes, want 0", got)
	}

	// A mutation the statement DOES read drops the memos: rebind first,
	// then delta, each followed by exactly one fresh count.
	db.Relation("label_b").Insert(database.Tuple{1})
	probe("after insert on a read relation", 1)
	db.Relation("edge_b").Delete(database.Tuple{0, 0})
	probe("after delete on a read relation", 1)
	if r, d := cache.RefreshesOf(plan.RefreshRebind), cache.RefreshesOf(plan.RefreshDelta); r != 1 || d != 1 {
		t.Fatalf("rebind/delta refreshes = %d/%d, want 1/1", r, d)
	}
	probe("warm again", 0)
}

// TestCountOverflowFallsBack: with more than 2⁶⁴ answers the spine has no
// uint64 counting pass; Count still returns the exact number through the
// star-size DP, random access refuses with the typed error, and an
// enumeration resumed at an offset skips to it.
func TestCountOverflowFallsBack(t *testing.T) {
	db := database.NewDatabase()
	r := database.NewRelation("R", 1)
	for i := 0; i < 1<<10; i++ {
		r.InsertValues(database.Value(i))
	}
	db.AddRelation(r)
	q := mustCQ(t, "Q(a,b,c,d,e,f,g) :- R(a), R(b), R(c), R(d), R(e), R(f), R(g).")
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.EnumerateEngine != plan.EngineConstantDelay {
		t.Fatalf("route %s, want constant-delay", p.EnumerateEngine)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	n, err := pr.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Lsh(big.NewInt(1), 70); n.Cmp(want) != 0 {
		t.Fatalf("Count = %s, want 2^70 = %s", n, want)
	}
	if _, err := pr.NewRandomAccess(nil); !errors.Is(err, cq.ErrCountOverflow) {
		t.Fatalf("NewRandomAccess: err = %v, want cq.ErrCountOverflow", err)
	}
	const offset = 1<<10 + 5
	full, err := pr.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want database.Tuple
	for i := 0; i <= offset; i++ {
		want, _ = full.Next()
	}
	e, err := pr.EnumerateAt(context.Background(), nil, offset)
	if err != nil {
		t.Fatal(err)
	}
	if tp, ok := e.Next(); !ok || !tp.Equal(want) {
		t.Fatalf("EnumerateAt(%d) starts at %v, want %v", offset, tp, want)
	}
}

// TestWeightsFollowTheCore drives a churn loop — delete, refresh, reinsert,
// refresh — while reader goroutines count, random-access and seek under the
// read lock. Count, GetInt(i) and EnumerateAt(i) must agree with each other
// position for position and with a fresh bind's answer set on every round.
// Run with -race.
func TestWeightsFollowTheCore(t *testing.T) {
	q := mustCQ(t, "Q(x,y,z) :- A(x,y), B(y,z).")
	const base = 200
	db := joinDB(base)
	a := db.Relation("A")
	cache := plan.NewCache()
	p, err := cache.Compile(q)
	if err != nil {
		t.Fatal(err)
	}

	var dbMu sync.RWMutex // the serving discipline: readers share, writers exclude
	check := func(full bool) {
		dbMu.RLock()
		defer dbMu.RUnlock()
		pr, err := cache.PreparePlan(p, db, nil)
		if err != nil {
			t.Errorf("PreparePlan: %v", err)
			return
		}
		e, err := pr.Enumerate(nil)
		if err != nil {
			t.Errorf("Enumerate: %v", err)
			return
		}
		rows := delay.Collect(e)
		n, err := pr.Count(nil)
		if err != nil || n.Cmp(big.NewInt(int64(len(rows)))) != 0 {
			t.Errorf("Count = %v, %v; the stream has %d", n, err, len(rows))
			return
		}
		ra, err := pr.NewRandomAccess(nil)
		if err != nil {
			t.Errorf("NewRandomAccess: %v", err)
			return
		}
		step := 1
		if !full {
			step = 37
		}
		for i := 0; i < len(rows); i += step {
			if tp, err := ra.GetInt(int64(i)); err != nil || !tp.Equal(rows[i]) {
				t.Errorf("GetInt(%d) = %v, %v; the stream has %v", i, tp, err, rows[i])
				return
			}
			at, err := pr.EnumerateAt(context.Background(), nil, uint64(i))
			if err != nil {
				t.Errorf("EnumerateAt(%d): %v", i, err)
				return
			}
			for k := i; k < len(rows) && k < i+3; k++ {
				if tp, ok := at.Next(); !ok || !tp.Equal(rows[k]) {
					t.Errorf("EnumerateAt(%d) answer %d = %v; the stream has %v", i, k-i, tp, rows[k])
					return
				}
			}
		}
		if full {
			fresh, err := p.Bind(db)
			if err != nil {
				t.Errorf("fresh Bind: %v", err)
				return
			}
			fe, _ := fresh.Enumerate(nil)
			if want := delay.Collect(fe); !sameAnswers(rows, want) {
				t.Errorf("refreshed statement has %d answers, a fresh bind %d", len(rows), len(want))
			}
		}
	}
	check(true)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					check(false)
				}
			}
		}()
	}

	const rounds = 400
	for round := 0; round < rounds && !t.Failed(); round++ {
		i := (round / 2) % base
		tup := database.Tuple{database.Value(i), database.Value(i % 50)}
		dbMu.Lock()
		if round%2 == 0 {
			if !a.Delete(tup) {
				t.Errorf("round %d: delete missed", round)
			}
		} else if err := a.InsertBatch([]database.Tuple{tup}); err != nil {
			t.Errorf("round %d: insert: %v", round, err)
		}
		dbMu.Unlock()
		check(round%40 == 0)
	}
	close(stop)
	readers.Wait()
}
