package cq

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// This file implements the parallel Yannakakis engine. The semijoin passes
// of the full reducer and the join pass of Eval process independent sibling
// subtrees of the join tree concurrently — disjoint node sets, so no two
// workers ever touch the same relation — and each individual semijoin
// shards its hash-index build across cores (database.ParSemijoin).
//
// Parallelism changes wall time only: the engines perform the same
// relational operations on the same join tree, and every operation ticks
// the shared (atomic) step counter at the same points as the sequential
// engine, so the counted total work — the quantity bounded by Theorem 4.2's
// O(‖φ‖·‖D‖·‖φ(D)‖) — is preserved.

// parEngine bounds the engine's concurrency: the calling goroutine counts
// as one worker and the semaphore admits par-1 extra goroutines. Sibling
// tasks that find the semaphore full simply run inline, so the recursion
// never blocks on itself.
type parEngine struct {
	par  int
	sem  chan struct{}
	c    *delay.Counter
	dead atomic.Bool  // set when some relation reduced to empty
	wid  atomic.Int32 // worker-id allocator for span attribution
}

// Parallelism returns the effective degree for a requested one: values < 1
// mean "use all cores" (GOMAXPROCS), matching the -parallel flag contract.
func Parallelism(par int) int {
	if par < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

func newParEngine(par int, c *delay.Counter) *parEngine {
	par = Parallelism(par)
	return &parEngine{par: par, sem: make(chan struct{}, par-1), c: c}
}

// forEach runs n index-addressed tasks, spilling onto extra goroutines as
// semaphore slots are available and running the remainder inline. w is the
// calling worker's id for span attribution: inline tasks inherit it, while
// each spawned goroutine draws a fresh id from the engine's allocator.
func (e *parEngine) forEach(n, w int, f func(k, w int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	for k := 1; k < n; k++ {
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			go func(k int) {
				defer func() { <-e.sem; wg.Done() }()
				f(k, int(e.wid.Add(1)))
			}(k)
		default:
			f(k, w)
		}
	}
	f(0, w)
	wg.Wait()
}

// semijoinPar is semijoin with a sharded index build and chunked probing.
func semijoinPar(a, b Rel, par int) Rel {
	ac, bc := commonCols(a, b)
	if len(ac) == 0 {
		// No shared variables: a survives iff b is nonempty.
		if b.R.Len() == 0 {
			return Rel{Schema: a.Schema, R: database.NewRelation(a.R.Name, a.R.Arity)}
		}
		return a
	}
	return Rel{Schema: a.Schema, R: database.ParSemijoin(a.R, ac, b.R, bc, par)}
}

// reduceUp runs the bottom-up semijoin pass over subtree i: sibling
// subtrees first (concurrently), then node i is filtered by each child.
// If any relation is already empty the join is empty and remaining subtrees
// are skipped — the parallel analogue of Decide's early exit.
func (e *parEngine) reduceUp(t *Tree, i, w int) {
	if e.dead.Load() {
		return
	}
	kids := t.children[i]
	e.forEach(len(kids), w, func(k, w int) { e.reduceUp(t, kids[k], w) })
	if e.dead.Load() {
		return
	}
	span := e.c.StartSpan("semijoin-reduce", w)
	for _, ch := range kids {
		t.Rels[i] = semijoinPar(t.Rels[i], t.Rels[ch], e.par)
		e.c.Tick(int64(t.Rels[i].R.Len()) + 1)
	}
	span.End()
	if t.Rels[i].R.Len() == 0 {
		e.dead.Store(true)
	}
}

// reduceDown runs the top-down pass under node i: each child is filtered by
// its parent and then recursively processed; the children are independent
// and run concurrently.
func (e *parEngine) reduceDown(t *Tree, i, w int) {
	kids := t.children[i]
	e.forEach(len(kids), w, func(k, w int) {
		ch := kids[k]
		span := e.c.StartSpan("semijoin-reduce", w)
		t.Rels[ch] = semijoinPar(t.Rels[ch], t.Rels[i], e.par)
		e.c.Tick(int64(t.Rels[ch].R.Len()) + 1)
		span.End()
		e.reduceDown(t, ch, w)
	})
}

// ParFullReduce is FullReduce with the semijoin passes parallelized over
// independent sibling subtrees and sharded hash-index builds, using up to
// par workers (par < 1 means GOMAXPROCS). The reduced relations, their
// tuple order, and the counted steps on a nonempty join are identical to
// the sequential FullReduce.
func (t *Tree) ParFullReduce(par int, c *delay.Counter) bool {
	if t.HeadIdx >= 0 {
		panic("cq: ParFullReduce on a head-extended tree")
	}
	e := newParEngine(par, c)
	e.reduceUp(t, t.JT.Root(), 0)
	if e.dead.Load() {
		return false
	}
	e.reduceDown(t, t.JT.Root(), 0)
	for _, r := range t.Rels {
		if r.R.Len() == 0 {
			return false
		}
	}
	return true
}

// ParDecide is Decide (Theorem 4.2 for sentences) with the bottom-up pass
// parallelized over sibling subtrees; par < 1 means GOMAXPROCS.
func ParDecide(db *database.Database, q *logic.CQ, par int, c *delay.Counter) (bool, error) {
	bm := c.StartSpan("tree-build", -1)
	t, err := buildTree(db, q, false, par)
	bm.End()
	if err != nil {
		return false, err
	}
	e := newParEngine(par, c)
	e.reduceUp(t, t.JT.Root(), 0)
	return !e.dead.Load(), nil
}

// evalUp runs Eval's bottom-up join pass over subtree i, sibling subtrees
// concurrently. acc[i] is written only by the task owning subtree i and
// read only by its parent, after the subtree task completed.
func (e *parEngine) evalUp(t *Tree, i, w int, head map[string]bool, acc []Rel) {
	kids := t.children[i]
	e.forEach(len(kids), w, func(k, w int) { e.evalUp(t, kids[k], w, head, acc) })
	span := e.c.StartSpan("join", w)
	acc[i] = t.evalNode(i, head, acc, e.c)
	span.End()
}

// ParEval is Eval (the Yannakakis algorithm, Theorem 4.2) with the full
// reducer and the join pass parallelized over independent sibling subtrees
// of the join tree, using up to par workers (par < 1 means GOMAXPROCS).
// The answer sequence is identical to Eval's, and the counted steps equal
// the sequential engine's on nonempty joins: parallelism changes wall
// time, not counted work.
func ParEval(db *database.Database, q *logic.CQ, par int, c *delay.Counter) ([]database.Tuple, error) {
	bm := c.StartSpan("tree-build", -1)
	t, err := buildTree(db, q, false, par)
	bm.End()
	if err != nil {
		return nil, err
	}
	if !t.ParFullReduce(par, c) {
		return nil, nil
	}
	e := newParEngine(par, c)
	head := headSet(q)
	acc := make([]Rel, len(t.Rels))
	e.evalUp(t, t.JT.Root(), 0, head, acc)
	root := acc[t.JT.Root()]
	out := project(root, q.Head)
	out.R.Dedup()
	c.Tick(int64(out.R.Len()) + 1)
	return out.R.Tuples, nil
}
