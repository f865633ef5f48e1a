package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// An op is one HTTP request. Scripts are pure functions of (seed, workload,
// client index): the same seed replays the same requests in the same order.

type opKind uint8

const (
	opDecide opKind = iota
	opCount
	opPage
	opStream
	opMutate
)

// class is the op's reporting class: kind, and for pages the page size.
type class uint8

const (
	clDecide class = iota
	clCount
	clPage16
	clPage64
	clPage1024
	clStream
	clMutate
	numClasses
)

var classNames = [numClasses]string{"decide", "count", "page16", "page64", "page1024", "stream", "mutate"}

func pageClass(limit int) class {
	switch limit {
	case 16:
		return clPage16
	case 64:
		return clPage64
	}
	return clPage1024
}

// role tags the ops behind the workload-specific latency metrics.
type role uint8

const (
	roleNone      role = iota
	roleRaw            // first read of the mutated pair after the client's own mutate
	roleBystander      // read of a pair no mutation ever touches
	roleDeep           // last page of a walk on a skip route
)

// stmt is one statement a workload sends. Statements over the same shape and
// pair share one expectation; cold_bind mints a fresh head name per request.
type stmt struct {
	key  string // shape plus pair suffix, or the fresh head name
	sh   shape
	p    pair
	text string
}

func newStmt(sh shape, p pair) *stmt {
	key := sh.String() + p.edge[len("edge"):]
	return &stmt{key: key, sh: sh, p: p, text: sh.text("Q", p)}
}

type op struct {
	kind   opKind
	class  class
	role   role
	st     *stmt
	limit  int
	page   int  // index in a walk; 0 starts a walk without a cursor
	insert bool // mutate: insert, else delete
	tuple  [2]int64
}

func (o op) String() string {
	if o.kind == opMutate {
		return fmt.Sprintf("mutate %v %v", o.insert, o.tuple)
	}
	return fmt.Sprintf("%s %s page=%d role=%d", classNames[o.class], o.st.text, o.page, o.role)
}

// workload describes one traffic mix. Why each exists is in README.md and
// BENCHMARK.json; the one-line reminders here say what each isolates.
type workload struct {
	name      string
	textBoot  bool    // boot from d1.txt through the text loader, not d1.snap
	byHandle  bool    // address statements by prepared handle (no parse)
	mutates   bool    // clients mutate edge_s: reads race writes, the model decides
	fresh     []shape // every request mints a never-seen statement of these shapes over pairC
	warm      []*stmt // statements prepared, counted and verified during set-up
	replayOps int     // ops of client 0's script the traced replay runs
	script    func(w *world, client int) func() op
}

var (
	stFC2, stPath3, stNeq2  = newStmt(shapeFC2, pairBig), newStmt(shapePath3, pairBig), newStmt(shapeNeq2, pairBig)
	stFC2s, stPath3s, stMMs = newStmt(shapeFC2, pairS), newStmt(shapePath3, pairS), newStmt(shapeMM, pairS)
	stFC2b                  = newStmt(shapeFC2, pairB)
)

// coldShapes are the templates cold_bind mints its statements from.
var coldShapes = []shape{shapeChain3, shapeFC2, shapeNeq2}

var workloads = []*workload{
	{ // per-request overhead: every result is memoized
		name: "warm_point", warm: []*stmt{stFC2, stPath3, stNeq2}, replayOps: 2000,
		script: warmPointScript,
	},
	{ // enumerators, encode and pagination; no parse, no plan work
		name: "scan_enum", byHandle: true, warm: []*stmt{stFC2, stNeq2, stMMs}, replayOps: 76,
		script: scanEnumScript,
	},
	{ // writes beside reads: mutate, refresh, memo rebuilds
		name: "churn_rw", mutates: true, warm: []*stmt{stFC2s, stPath3s, stFC2b}, replayOps: 300,
		script: churnScript,
	},
	{ // compile, bind, index builds; cache and memo paths idle
		name: "cold_bind", textBoot: true, fresh: coldShapes, replayOps: 200,
		script: coldBindScript,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func scriptRNG(seed int64, wl string, client int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, wl, client)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// pick draws an index with probability proportional to weights.
func pick(rng *rand.Rand, weights []int) int {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	n := rng.Intn(sum)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return len(weights) - 1
}

// pointOp builds the decide / count / first-page op that mixes index i of
// (decide, page64, count) selects.
func pointOp(i int, st *stmt) op {
	switch i {
	case 0:
		return op{kind: opDecide, class: clDecide, st: st}
	case 1:
		return op{kind: opPage, class: clPage64, st: st, limit: 64}
	}
	return op{kind: opCount, class: clCount, st: st}
}

func warmPointScript(w *world, client int) func() op {
	rng := scriptRNG(w.seed, "warm_point", client)
	sts := []*stmt{stFC2, stPath3, stNeq2}
	return func() op {
		return pointOp(pick(rng, []int{4, 4, 2}), sts[rng.Intn(len(sts))])
	}
}

// scanCycle is the fixed scan_enum cycle: both enumeration styles (stream
// and page) on the random-access route (fc2) and on the skip routes (neq2,
// mm), whose page cost grows with the offset. The flat fc2 pages are more
// than half the ops, so the median latency sits inside one population and
// not on the edge between two.
func scanCycle() []op {
	var c []op
	stream := func(st *stmt) { c = append(c, op{kind: opStream, class: clStream, st: st}) }
	walk := func(st *stmt, pages, limit int, deep bool) {
		for i := 0; i < pages; i++ {
			o := op{kind: opPage, class: pageClass(limit), st: st, limit: limit, page: i}
			if deep && i == pages-1 {
				o.role = roleDeep
			}
			c = append(c, o)
		}
	}
	stream(stFC2)
	stream(stNeq2)
	walk(stFC2, 24, 1024, false)
	walk(stNeq2, 8, 1024, true)
	walk(stMMs, 4, 16, true)
	return c
}

func scanEnumScript(w *world, client int) func() op {
	cycle := scanCycle()
	// Odd clients start at the first walk, so the clients do not stream in
	// lockstep.
	i := 0
	if client%2 == 1 {
		for cycle[i].kind != opPage {
			i++
		}
	}
	return func() op {
		o := cycle[i%len(cycle)]
		i++
		return o
	}
}

// churnTuple is client c's k-th private edge_s tuple. Its source lies above
// the domain, so it never collides with a generated row or another client's
// tuple; half the targets carry a label_s, so half the inserts change fc2_s.
func churnTuple(w *world, rng *rand.Rand, client int) [2]int64 {
	x := int64(w.data.sc.dom(pairS) + 1 + client)
	if rng.Intn(2) == 0 {
		labels := w.data.rows[pairS.label]
		return [2]int64{x, labels[rng.Intn(len(labels))][0]}
	}
	pd := w.pairData(pairS)
	for {
		if y := int64(rng.Intn(w.data.sc.dom(pairS)) + 1); !pd.label[y] {
			return [2]int64{x, y}
		}
	}
}

func churnScript(w *world, client int) func() op {
	rng := scriptRNG(w.seed, "churn_rw", client)
	var cur [2]int64
	i := 0
	return func() op {
		step, cycle := i%5, i/5
		i++
		switch step {
		case 0:
			// Even cycles insert a fresh tuple, odd cycles delete it again:
			// the relation keeps its size and every mutate changes it.
			if cycle%2 == 0 {
				cur = churnTuple(w, rng, client)
			}
			return op{kind: opMutate, class: clMutate, insert: cycle%2 == 0, tuple: cur}
		case 1:
			return op{kind: opCount, class: clCount, st: stFC2s, role: roleRaw}
		case 2:
			return op{kind: opPage, class: clPage64, st: stFC2s, limit: 64}
		case 3:
			return op{kind: opDecide, class: clDecide, st: stPath3s}
		}
		return op{kind: opCount, class: clCount, st: stFC2b, role: roleBystander}
	}
}

func coldBindScript(w *world, client int) func() op {
	rng := scriptRNG(w.seed, "cold_bind", client)
	i := 0
	return func() op {
		sh := coldShapes[rng.Intn(len(coldShapes))]
		// A fresh head name is a fresh fingerprint: the statement was never
		// compiled or bound, whatever the cache holds.
		head := fmt.Sprintf("S%dx%d", client, i)
		i++
		st := &stmt{key: head, sh: sh, p: pairC, text: sh.text(head, pairC)}
		return pointOp(pick(rng, []int{2, 2, 1}), st)
	}
}

// scriptHash fingerprints the first n ops of every client's script.
func scriptHash(w *world, wl *workload, clients, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		next := wl.script(w, c)
		for i := 0; i < n; i++ {
			fmt.Fprintln(h, next().String())
		}
	}
	return h.Sum64()
}
