package plan_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/qgen"
)

// genState is the ground truth for one database generation, recomputed by
// the mutator (under the write lock) after every mutation. Workers compare
// every answer they extract from the cache against the state matching the
// generation they observed — a stale answer escaping the cache's
// generation checks would show up as a mismatch here.
type genState struct {
	gen     uint64
	decide  []bool
	answers [][]database.Tuple // sorted, per query
}

func sortTuples(ts []database.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// TestCacheRaceStress hammers one plan.Cache from many goroutines with
// interleaved Prepare (bind), Decide/Enumerate (execute), Refresh (via the
// cache's refresh-in-place on the probe after each mutation), and
// Len/Stats — against a database mutating under a qgen script. The
// locking discipline is the serving one (qservd uses the same): executions
// hold a read lock on the database for their whole probe+execute window,
// mutations hold the write lock. Workers alternate randomly between the
// query-text path (Prepare) and the handle path qservd's bind lane uses
// (PeekPlan probe, PreparePlan on a miss) so the singleflight registry and
// the warm-probe fast path race against eviction, refresh, and each other.
// Run under -race this guards the cache's concurrency; the assertions
// guard that no stale answer ever escapes and that ErrStalePlan always
// recovers within one re-probe.
func TestCacheRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := qgen.Default()

	var queries []*logic.CQ
	for len(queries) < 6 {
		var q *logic.CQ
		if len(queries)%2 == 0 {
			q = qgen.FreeConnexCQ(rng, cfg)
		} else {
			q = qgen.AcyclicCQ(rng, cfg)
		}
		if len(q.Head) == 0 {
			continue
		}
		// Generated queries draw predicate names from a shared R0, R1, …
		// pool with per-query arities; prefix them so six queries can share
		// one database without arity collisions.
		for j := range q.Atoms {
			q.Atoms[j].Pred = fmt.Sprintf("q%d_%s", len(queries), q.Atoms[j].Pred)
		}
		queries = append(queries, q)
	}
	db := qgen.DatabaseFor(rng, cfg, queries...)
	script := qgen.MutationScript(rng, cfg, db, 120)

	cache := plan.NewCache()
	cache.SetMaxPrepared(4) // smaller than the working set: constant eviction churn

	// Compiled plans for the handle path: qservd resolves a statement
	// handle to a *Plan and then probes/binds by plan, never re-parsing.
	plans := make([]*plan.Plan, len(queries))
	for i, q := range queries {
		p, err := cache.Compile(q)
		if err != nil {
			t.Fatalf("compile q%d: %v", i, err)
		}
		plans[i] = p
	}

	compute := func() *genState {
		st := &genState{gen: db.Generation()}
		for _, q := range queries {
			want, err := oracle.Eval(db, q)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			sortTuples(want)
			st.answers = append(st.answers, want)
			st.decide = append(st.decide, len(want) > 0)
		}
		return st
	}

	var dbMu sync.RWMutex
	var cur atomic.Pointer[genState]
	cur.Store(compute())

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Workers: probe the cache and execute under the read lock, comparing
	// against the ground truth of the generation they hold.
	const workers = 8
	var staleRetries atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(1000 + w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := wrng.Intn(len(queries))
				dbMu.RLock()
				st := cur.Load()
				if st.gen != db.Generation() {
					dbMu.RUnlock()
					t.Errorf("worker %d: read-locked generation %d does not match published state %d", w, db.Generation(), st.gen)
					return
				}
				var pr *plan.Prepared
				var err error
				if wrng.Intn(2) == 0 {
					// Handle path: warm probe first, singleflight bind on a
					// miss — exactly qservd's withStatement sequence.
					var warm bool
					if pr, warm = cache.PeekPlan(plans[i], db); !warm {
						pr, err = cache.PreparePlan(plans[i], db, nil)
					}
				} else {
					pr, err = cache.Prepare(queries[i], db)
				}
				if err != nil {
					dbMu.RUnlock()
					t.Errorf("worker %d: Prepare: %v", w, err)
					return
				}
				ok, err := pr.Decide(nil)
				if errors.Is(err, plan.ErrStalePlan) {
					// Must recover within one re-probe: under the read lock
					// the generation cannot move, so a fresh probe binds (or
					// refreshes) against exactly the generation we hold.
					staleRetries.Add(1)
					pr, err = cache.Prepare(queries[i], db)
					if err == nil {
						ok, err = pr.Decide(nil)
					}
				}
				if err != nil {
					dbMu.RUnlock()
					t.Errorf("worker %d: Decide did not recover: %v", w, err)
					return
				}
				if ok != st.decide[i] {
					dbMu.RUnlock()
					t.Errorf("worker %d: STALE ANSWER: Decide(q%d) = %v at gen %d, want %v", w, i, ok, st.gen, st.decide[i])
					return
				}
				if wrng.Intn(3) == 0 {
					e, err := pr.Enumerate(nil)
					if errors.Is(err, plan.ErrStalePlan) {
						staleRetries.Add(1)
						if pr, err = cache.Prepare(queries[i], db); err == nil {
							e, err = pr.Enumerate(nil)
						}
					}
					if err != nil {
						dbMu.RUnlock()
						t.Errorf("worker %d: Enumerate did not recover: %v", w, err)
						return
					}
					got := delay.Collect(e)
					sortTuples(got)
					if !sameAnswers(got, st.answers[i]) {
						dbMu.RUnlock()
						t.Errorf("worker %d: STALE ANSWERS: q%d at gen %d: got %v want %v", w, i, st.gen, got, st.answers[i])
						return
					}
				}
				dbMu.RUnlock()
			}
		}(w)
	}

	// Observer: the cache's read-outs need no database lock — they must be
	// safe against concurrent probes and refreshes by construction.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			cache.Len()
			cache.Stats()
			cache.Refreshes()
		}
	}()

	// Mutator: apply the script under the write lock, publish the new
	// ground truth, and probe one query so the cache's refresh-in-place
	// path (Prepared.Refresh) runs interleaved with the workers.
	for step, m := range script {
		dbMu.Lock()
		if err := m.Apply(db); err != nil {
			dbMu.Unlock()
			t.Fatalf("step %d: %v", step, err)
		}
		cur.Store(compute())
		if _, err := cache.Prepare(queries[step%len(queries)], db); err != nil {
			dbMu.Unlock()
			t.Fatalf("step %d: refresh probe: %v", step, err)
		}
		dbMu.Unlock()
	}
	close(done)
	wg.Wait()

	hits, misses := cache.Stats()
	t.Logf("cache: hits=%d misses=%d refreshes=%d sweeps-survived len=%d staleRetries=%d",
		hits, misses, cache.Refreshes(), cache.Len(), staleRetries.Load())
}
