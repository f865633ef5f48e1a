package plan_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/plan"
)

// TestCacheHitMiss: first Prepare compiles and binds (miss), the second is
// a warm probe (hit), a mutation forces exactly one more miss, and the
// answers track the database state throughout.
func TestCacheHitMiss(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := chainDB(20)
	cache := plan.NewCache()

	pr1, err := cache.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := cache.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if pr1 != pr2 {
		t.Error("second Prepare returned a different Prepared")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("after two Prepares: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// A structurally equal but distinct query value hits the same plan.
	q2 := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	pr3, err := cache.Prepare(q2, db)
	if err != nil {
		t.Fatal(err)
	}
	if pr3 != pr1 {
		t.Error("structurally equal query missed the cache")
	}

	e, err := pr1.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := len(delay.Collect(e))

	// Mutation: the stale entry is caught up in place — the SAME Prepared
	// keeps serving, now against the mutated data, and the probe is neither
	// a hit nor a miss but a refresh.
	db.Relation("A").Insert(database.Tuple{900, 1})
	pr4, err := cache.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if pr4 != pr1 {
		t.Error("Prepare bound a fresh statement instead of refreshing the cached one")
	}
	if pr4.Stale() {
		t.Error("refreshed Prepared still reports stale")
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Errorf("misses=%d after mutation, want 1 (refresh, not rebind)", misses)
	}
	if r := cache.Refreshes(); r != 1 {
		t.Errorf("refreshes=%d after mutation, want 1", r)
	}
	e4, err := pr4.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if after := len(delay.Collect(e4)); after != before+1 {
		t.Errorf("refreshed answers=%d, want %d", after, before+1)
	}

	// Different databases get independent entries under the same plan.
	db2 := chainDB(5)
	if _, err := cache.Prepare(q, db2); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Errorf("misses=%d after second database, want 2", misses)
	}
	if n := cache.Len(); n != 2 {
		t.Errorf("cache holds %d statements, want 2", n)
	}
}

// TestCacheMutateHeavyBounded: a mutate-heavy loop must not grow the
// cache — every probe refreshes the one cached statement in place — and a
// size bound must hold even when the workload cycles through more
// databases than the cache may retain.
func TestCacheMutateHeavyBounded(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := chainDB(20)
	cache := plan.NewCache()
	pr0, err := cache.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Relation("A").Insert(database.Tuple{database.Value(1000 + i), 1})
		pr, err := cache.Prepare(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if pr != pr0 {
			t.Fatalf("step %d: mutation produced a fresh Prepared instead of a refresh", i)
		}
		if n := cache.Len(); n != 1 {
			t.Fatalf("step %d: cache grew to %d statements", i, n)
		}
	}
	if r := cache.Refreshes(); r != 50 {
		t.Errorf("refreshes=%d, want 50", r)
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Errorf("misses=%d, want 1", misses)
	}

	// Size bound: cycling through many databases stays within the cap,
	// and the hot statement (touched every round) survives eviction.
	cache.SetMaxPrepared(4)
	for i := 0; i < 20; i++ {
		if _, err := cache.Prepare(q, chainDB(5)); err != nil {
			t.Fatal(err)
		}
		if pr, err := cache.Prepare(q, db); err != nil || pr != pr0 {
			t.Fatalf("round %d: hot statement evicted (pr==pr0: %v, err=%v)", i, pr == pr0, err)
		}
		if n := cache.Len(); n > 4 {
			t.Fatalf("round %d: cache holds %d statements, cap 4", i, n)
		}
	}
}

// TestCacheUCQ: union plans are cached under the union fingerprint.
func TestCacheUCQ(t *testing.T) {
	db := chainDB(10)
	cache := plan.NewCache()
	prepare := func() *plan.Prepared {
		p, err := cache.CompileUCQ(mustUCQ(t, "Q(x) :- A(x,y); Q(x) :- B(x,y)."))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := cache.PreparePlan(p, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	pr1, pr2 := prepare(), prepare()
	if pr1 != pr2 {
		t.Error("equal unions got distinct Prepareds")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestCacheWarmPathAllocs pins the warm-path contract: once a (query,
// database) pair is bound, probing the cache and deciding performs zero
// allocations — no fingerprint rendering, no key boxing, no index rebuild.
func TestCacheWarmPathAllocs(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := chainDB(50)
	cache := plan.NewCache()
	if _, err := cache.Prepare(q, db); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		pr, err := cache.Prepare(q, db)
		if err != nil {
			panic(err)
		}
		ok, err := pr.Decide(nil)
		if err != nil {
			panic(err)
		}
		if !ok {
			panic("instance unexpectedly empty")
		}
	})
	if allocs != 0 {
		t.Errorf("warm cache.Prepare + Decide allocates %.1f objects/run, want 0", allocs)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines with
// structurally equal queries and interleaved executions; run under -race
// this pins the locking discipline. Every goroutine must observe the same
// answer count.
func TestCacheConcurrent(t *testing.T) {
	db := chainDB(30)
	cache := plan.NewCache()
	qref := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	pref, err := cache.Prepare(qref, db)
	if err != nil {
		t.Fatal(err)
	}
	eref, err := pref.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(delay.Collect(eref))

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
			for i := 0; i < 50; i++ {
				pr, err := cache.Prepare(q, db)
				if err != nil {
					errs <- err
					return
				}
				e, err := pr.Enumerate(nil)
				if err != nil {
					errs <- err
					return
				}
				if got := len(delay.Collect(e)); got != want {
					errs <- fmt.Errorf("got %d answers, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, misses := cache.Stats(); misses != 1 {
		t.Errorf("hits=%d misses=%d, want exactly 1 miss", hits, misses)
	}
}

// TestCacheReset drops all entries.
func TestCacheReset(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := chainDB(5)
	cache := plan.NewCache()
	if _, err := cache.Prepare(q, db); err != nil {
		t.Fatal(err)
	}
	cache.Reset()
	if _, err := cache.Prepare(q, db); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Errorf("misses=%d after Reset, want 2", misses)
	}
}

// TestPrepareSingleflight: N goroutines racing to bind the same cold
// statement must cost exactly one bind — one flight holder pays the miss,
// every waiter is counted a hit and receives the same *Prepared.
func TestPrepareSingleflight(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	b := database.NewRelation("B", 2)
	for i := 0; i < 50_000; i++ {
		a.InsertValues(database.Value(i), database.Value(i+1))
		b.InsertValues(database.Value(i), database.Value(i+1))
	}
	db.AddRelation(a)
	db.AddRelation(b)
	cache := plan.NewCache()
	p, err := cache.Compile(q)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	var start, wg sync.WaitGroup
	start.Add(1)
	prs := make([]*plan.Prepared, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			pr, err := cache.PreparePlan(p, db, nil)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			prs[i] = pr
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := 1; i < n; i++ {
		if prs[i] != prs[0] {
			t.Fatalf("goroutine %d got a different Prepared than goroutine 0", i)
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 {
		t.Fatalf("%d concurrent cold Prepares cost %d binds, want exactly 1", n, misses)
	}
	if hits != n-1 {
		t.Fatalf("hits %d, want %d (every waiter counts as a hit)", hits, n-1)
	}
}

// slowChain is Q(x1,…,xn) :- R1(x1,x2,y), …, R(n−1)(x(n−1),xn,y): acyclic,
// yet its compile searches the S-vertices' conflict graph, a path, in time
// exponential in n (about 0.2 s at n = 38 on a 2-vCPU x86-64 host).
func slowChain(t *testing.T, n int) *logic.CQ {
	var head, atoms []string
	for i := 1; i <= n; i++ {
		head = append(head, fmt.Sprintf("x%d", i))
		if i < n {
			atoms = append(atoms, fmt.Sprintf("R%d(x%d,x%d,y)", i, i, i+1))
		}
	}
	return mustCQ(t, fmt.Sprintf("Q(%s) :- %s.", strings.Join(head, ","), strings.Join(atoms, ", ")))
}

// TestCacheCompileHoldsNoLock: a slow compile holds no lock of the cache,
// so a warm hit of another statement returns at once while it runs.
func TestCacheCompileHoldsNoLock(t *testing.T) {
	cache := plan.NewCache()
	warm := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	if _, err := cache.Compile(warm); err != nil {
		t.Fatal(err)
	}
	slow := slowChain(t, 38)
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		if _, err := cache.Compile(slow); err != nil {
			t.Error(err)
		}
	}()
	<-started
	time.Sleep(5 * time.Millisecond) // into the compile
	begin := time.Now()
	if _, err := cache.Compile(warm); err != nil {
		t.Fatal(err)
	}
	took := time.Since(begin)
	select {
	case <-done:
		t.Fatalf("the slow compile ended before the warm hit returned (%v)", took)
	default:
	}
	if took > 10*time.Millisecond {
		t.Errorf("a warm hit took %v beside a compile in flight, want under 10 ms", took)
	}
	<-done
}

// TestCacheRacingCompilesShareAPlan: compiles of one query text in flight
// at once run one compile, and every caller gets its plan, so *Plan
// identity keys prepared statements as before.
func TestCacheRacingCompilesShareAPlan(t *testing.T) {
	cache := plan.NewCache()
	var wg sync.WaitGroup
	plans := make([]*plan.Plan, 8)
	for i := range plans {
		q := slowChain(t, 34)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := cache.Compile(q)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}()
	}
	wg.Wait()
	for i, p := range plans {
		if p == nil || p != plans[0] {
			t.Fatalf("racing compile %d returned %p, compile 0 %p, want one plan", i, p, plans[0])
		}
	}
	if n := cache.Compiles(); n != 1 {
		t.Errorf("%d racing compiles of one text ran %d compiles, want 1", len(plans), n)
	}
	if p := cache.PlanByFingerprint(plans[0].Fingerprint()); p != plans[0] {
		t.Fatalf("the cache holds %p under the fingerprint, want the one plan %p", p, plans[0])
	}
}

// TestCachePlansBounded: a stream of novel query texts leaves at most
// maxPrepared plans cached, least recently used out, and an evicted
// plan's bound statements leave with it.
func TestCachePlansBounded(t *testing.T) {
	const bound, texts = 64, 100_000
	cache := plan.NewCache()
	cache.SetMaxPrepared(bound)
	db := chainDB(10)
	hotQ := mustCQ(t, "Hot(x,y) :- A(x,y), B(y,z).")
	hot, err := cache.Compile(hotQ)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cache.Compile(mustCQ(t, "First(x,y) :- A(x,y), B(y,z)."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.PreparePlan(first, db, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < texts; i++ {
		q := &logic.CQ{Name: fmt.Sprintf("N%d", i), Head: hotQ.Head, Atoms: hotQ.Atoms}
		if _, err := cache.Compile(q); err != nil {
			t.Fatal(err)
		}
		if n := cache.PlanLen(); n > bound {
			t.Fatalf("after %d texts: %d plans cached, bound %d", i+1, n, bound)
		}
		if i%16 == 0 {
			if p, err := cache.Compile(hotQ); err != nil || p != hot {
				t.Fatalf("the hot plan was evicted (%v)", err)
			}
		}
	}
	if cache.PlanByFingerprint(first.Fingerprint()) != nil {
		t.Error("the first plan is still cached")
	}
	if n := cache.Len(); n != 0 {
		t.Errorf("%d bound statements cached after their plan left", n)
	}
	if n := cache.Compiles(); n != texts+2 {
		t.Errorf("%d compiles, want %d", n, texts+2)
	}
}
