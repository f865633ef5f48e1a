package cq

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/hypergraph"
	"repro/internal/logic"
)

// EnumerateConstantDelay enumerates φ(D) for a free-connex acyclic
// conjunctive query with constant delay after linear-time preprocessing
// (Theorem 4.6). The preprocessing follows the construction illustrated by
// Figure 1 of the paper:
//
//  1. build a join tree T' of the hypergraph extended with the head edge
//     (Definition 4.4), rooted at the head;
//  2. in a bottom-up pass, semijoin-filter each atom with its children and
//     project away the existentially quantified variables that are not
//     shared with the parent (the "S ← ..., S′ ← ..., R ← ..." steps of the
//     paper's example) — free-connexity guarantees that every free variable
//     occurring in a subtree already occurs in the subtree's root, so these
//     projections lose no answers;
//  3. the children of the head now carry relations over free variables
//     only, whose schemas form an acyclic hypergraph; full-reduce them along
//     a join tree and enumerate the resulting full join by a cursor
//     odometer, each move being one hash-index lookup.
//
// The per-output delay is O(‖φ‖) index operations, independent of ‖D‖.
func EnumerateConstantDelay(db *database.Database, q *logic.CQ, c *delay.Counter) (delay.Enumerator, error) {
	core, err := PrepareConstantDelay(db, q, c)
	if err != nil {
		return nil, err
	}
	return core.Cursor(c), nil
}

// PrepareConstantDelay runs the full Theorem 4.6 preprocessing — the
// head-extended join tree, the bottom-up elimination pass, and the full
// reduction plus index builds over the resulting free parts — and returns
// the reusable OdometerCore. One core supports any number of enumeration
// passes via Cursor; the plan cache builds it once per (query, database)
// pair.
func PrepareConstantDelay(db *database.Database, q *logic.CQ, c *delay.Counter) (*OdometerCore, error) {
	parts, err := BuildFreeParts(db, q, c)
	if err != nil {
		return nil, err
	}
	return NewOdometerCore(q.Head, parts, c)
}

// BuildFreeParts runs the preprocessing of Theorem 4.6 (steps 1 and 2 of
// the construction described on EnumerateConstantDelay) and returns the
// head node's children relations, whose schemas consist of free variables
// only and form an acyclic hypergraph. φ(D) is exactly their join.
func BuildFreeParts(db *database.Database, q *logic.CQ, c *delay.Counter) ([]Rel, error) {
	bm := c.StartSpan("tree-build")
	t, err := BuildTree(db, q, true)
	bm.End()
	if err != nil {
		return nil, err
	}
	span := c.StartSpan("semijoin-reduce")
	defer span.End()
	// Bottom-up elimination pass (step 2).
	free := headSet(q)
	b := make([]Rel, len(t.Rels))
	for _, i := range t.postord {
		if i == t.HeadIdx {
			continue
		}
		r := t.Rels[i]
		for _, ch := range t.children[i] {
			r = semijoin(r, b[ch])
			c.Tick(int64(r.R.Len()) + 1)
		}
		// Dedup alone does what an identity projection and Dedup do.
		if kept := t.keptVars(i, r.Schema, free); !slices.Equal(kept, r.Schema) {
			r = project(r, kept)
		}
		r.R.Dedup()
		c.Tick(int64(r.R.Len()) + 1)
		b[i] = r
	}
	// Step 3: the head's children hold relations over free variables only.
	var parts []Rel
	for _, ch := range t.children[t.HeadIdx] {
		parts = append(parts, b[ch])
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("cq: internal: head node has no children for %s", q.Name)
	}
	return parts, nil
}

// keptVars is the projection rule of the elimination pass: of node i's
// variables, the ones that are free or shared with the tree parent,
// sorted.
func (t *Tree) keptVars(i int, schema []string, free map[string]bool) []string {
	keep := make(map[string]bool)
	p := t.JT.Parent[i]
	for _, v := range schema {
		if free[v] || (p >= 0 && t.JT.Nodes[p].Has(v)) {
			keep[v] = true
		}
	}
	return sortedVars(keep)
}

func headSet(q *logic.CQ) map[string]bool {
	s := make(map[string]bool, len(q.Head))
	for _, v := range q.Head {
		s[v] = true
	}
	return s
}

// Odometer enumerates a full acyclic join of relations over free variables
// with constant delay after full reduction. It additionally exposes, after
// each Next, the tuple currently selected in each input part — used by the
// ineq package to attach witness checks to each output (Theorem 4.20).
type Odometer struct {
	o *odometer
}

// Next produces the next answer with constant delay.
func (od *Odometer) Next() (database.Tuple, bool) { return od.o.Next() }

// PartTuple returns the tuple currently selected in input part i. Only
// valid after a successful Next.
func (od *Odometer) PartTuple(i int) database.Tuple {
	j := od.o.core.origPos[i]
	return od.o.row(j, od.o.cursors[j])
}

// OdometerCore is the immutable, execution-independent half of the
// constant-delay enumerator: the full-reduced parts laid out in join-tree
// preorder together with their probe indexes, columnar slabs, the root
// bucket, and the links from each parent row to its bucket of child rows.
// Building it is the data-dependent preprocessing of Theorem 4.6;
// enumeration state lives in the cursors handed out by Cursor, so one core
// built once per (query, database) pair serves any number of enumeration
// passes without repeating reduction or index builds.
type OdometerCore struct {
	order []int // node visit order (preorder of the join tree of parts)
	rels  []Rel // aligned with order
	// For position j > 0: bucket lookup of rels[j] keyed on the columns
	// shared with the tree parent, probed with the parent's current tuple.
	parentPos []int // position in order of the tree parent (or -1 for 0)
	probes    [][2][]int
	idx       []*database.Index
	slabs     []database.Slab // row storage per position
	root      []int32         // full bucket of the root position (all row ids)
	outPos    [][2]int        // for each output variable: (position, column)
	origPos   []int           // origPos[i] = position in the visit order of input part i
	nout      int             // output arity
	dead      bool            // some part is empty: the join is empty
	// links[j][p] is the bucket of position j > 0 under parent row p as a
	// row range: the top-down reduction stored each bucket contiguously.
	// A delta patch moves rows and drops the links (nil); bucket then
	// falls back to idx.
	links [][]database.Range
	ids   []int32 // 0, 1, 2, …: a linked bucket is a slice of it
}

// NonEmpty reports whether the underlying join has at least one answer.
// After full reduction this is a constant-time check, so a bound plan
// answers the decision problem without any further work.
func (oc *OdometerCore) NonEmpty() bool { return !oc.dead && len(oc.root) > 0 }

// Cursor starts a fresh enumeration pass over the core. Cursors are
// independent: each holds its own positions, buckets, and output buffer,
// ticking c only for the constant-delay cursor moves (never for the
// preprocessing already captured in the core).
func (oc *OdometerCore) Cursor(c *delay.Counter) *Odometer {
	o := &odometer{
		core:    oc,
		c:       c,
		cursors: make([]int, len(oc.order)),
		buckets: make([][]int32, len(oc.order)),
		out:     make(database.Tuple, oc.nout),
		dead:    oc.dead,
	}
	if len(oc.order) > 0 {
		o.buckets[0] = oc.root
	}
	return &Odometer{o: o}
}

// odometer is one enumeration pass: the mutable cursor state over an
// OdometerCore. Buckets hold row ids into each part's columnar slab, so a
// cursor move is pure integer arithmetic and a bucket switch is one read
// of the parent row's link (one allocation-free fingerprint lookup on a
// patched core).
type odometer struct {
	core    *OdometerCore
	c       *delay.Counter
	cursors []int
	buckets [][]int32 // row ids into core.slabs[j]
	out     database.Tuple
	started bool
	dead    bool
	placed  bool     // Seek positioned the cursor: the first Next emits without reinit
	digit   []uint64 // Seek's scratch: the offset still to place below each position
}

// row resolves the cursor-cur tuple of position j as a slab view.
func (o *odometer) row(j, cur int) database.Tuple {
	return o.core.slabs[j].Row(o.buckets[j][cur])
}

// partsTree returns a join tree of the free parts' schemas.
func partsTree(schemas [][]string) (*hypergraph.JoinTree, error) {
	h := hypergraph.New()
	for i, sc := range schemas {
		h.AddEdge(hypergraph.NewEdge(fmt.Sprintf("V%d", i), sc...))
	}
	jt, ok := hypergraph.GYO(h)
	if !ok {
		return nil, fmt.Errorf("cq: internal: head-part schemas not acyclic")
	}
	return jt, nil
}

// NewOdometerCore full-reduces parts along a join tree of their schemas,
// builds the probe indexes, and returns the reusable core (see
// OdometerCore). The parts are full-reduced in place.
func NewOdometerCore(head []string, parts []Rel, c *delay.Counter) (*OdometerCore, error) {
	span := c.StartSpan("semijoin-reduce")
	defer span.End()
	schemas := make([][]string, len(parts))
	for i, p := range parts {
		schemas[i] = p.Schema
	}
	jt, err := partsTree(schemas)
	if err != nil {
		return nil, err
	}
	// Full-reduce parts along jt.
	ch := jt.Children()
	post := postorder(jt)
	for _, i := range post {
		for _, cc := range ch[i] {
			parts[i] = semijoin(parts[i], parts[cc])
			c.Tick(int64(parts[i].R.Len()) + 1)
		}
	}
	// The top-down pass lays each child out grouped by its parent's rows
	// and links every parent row to its group. It probes with the columns
	// of the bottom-up semijoin, so the child index that pass cached is
	// reused.
	links := make([][]database.Range, len(parts))
	for k := len(post) - 1; k >= 0; k-- {
		i := post[k]
		for _, cc := range ch[i] {
			ic, kc := commonCols(parts[i], parts[cc])
			var r *database.Relation
			r, links[cc] = database.GroupSemijoin(parts[cc].R, kc, parts[i].R, ic)
			parts[cc] = Rel{Schema: parts[cc].Schema, R: r}
			c.Tick(int64(parts[cc].R.Len()) + 1)
		}
	}
	dead := false
	for _, p := range parts {
		if p.R.Len() == 0 {
			dead = true
		}
	}
	// Preorder.
	var order []int
	var pre func(i int)
	pre = func(i int) {
		order = append(order, i)
		for _, cc := range ch[i] {
			pre(cc)
		}
	}
	pre(jt.Root())

	oc := &OdometerCore{dead: dead, nout: len(head)}
	oc.order = order
	oc.rels = make([]Rel, len(order))
	oc.parentPos = make([]int, len(order))
	oc.probes = make([][2][]int, len(order))
	oc.idx = make([]*database.Index, len(order))
	oc.slabs = make([]database.Slab, len(order))
	oc.links = make([][]database.Range, len(order))
	posOf := make(map[int]int, len(order))
	for j, node := range order {
		posOf[node] = j
		oc.rels[j] = parts[node]
		oc.slabs[j] = parts[node].R.Slab()
		oc.links[j] = links[node]
		if j == 0 {
			oc.parentPos[j] = -1
			root := make([]int32, parts[node].R.Len())
			for i := range root {
				root[i] = int32(i)
			}
			oc.root = root
			continue
		}
		p := jt.Parent[node]
		pp := posOf[p]
		oc.parentPos[j] = pp
		var jc, pc []int
		for col, v := range parts[node].Schema {
			if k := oc.rels[pp].col(v); k >= 0 {
				jc = append(jc, col)
				pc = append(pc, k)
			}
		}
		oc.probes[j] = [2][]int{jc, pc}
		oc.idx[j] = parts[node].R.IndexOn(jc)
		if n := parts[node].R.Len(); n > len(oc.ids) {
			oc.ids = make([]int32, n)
		}
	}
	for i := range oc.ids {
		oc.ids[i] = int32(i)
	}
	// Output mapping: first position whose schema holds each head variable.
	for _, v := range head {
		found := false
		for j := range order {
			if k := oc.rels[j].col(v); k >= 0 {
				oc.outPos = append(oc.outPos, [2]int{j, k})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cq: head variable %q missing from join parts", v)
		}
	}
	oc.origPos = make([]int, len(parts))
	for i := range parts {
		oc.origPos[i] = posOf[i]
	}
	return oc, nil
}

// DropLinks makes every bucket switch probe the indexes instead of reading
// the links, in the same bucket order. A delta patch calls it before
// moving rows; the sequence tests call it to compare the two paths.
func (oc *OdometerCore) DropLinks() { oc.links = nil }

// bucket returns the rows of position j > 0 under parent row p, in bucket
// order: p's linked range of the identity run, or the index lookup of p's
// key once a patch has dropped the links.
func (oc *OdometerCore) bucket(j int, p int32) []int32 {
	if oc.links != nil {
		r := oc.links[j][p]
		return oc.ids[r.Off : r.Off+r.Len : r.Off+r.Len]
	}
	return oc.idx[j].Lookup(oc.slabs[oc.parentPos[j]].Row(p), oc.probes[j][1])
}

// reinit repositions the cursor of position j at the first tuple of its
// bucket (recomputing the bucket from the parent's current row). After
// full reduction the bucket is never empty.
func (o *odometer) reinit(j int) {
	if j > 0 {
		pp := o.core.parentPos[j]
		o.buckets[j] = o.core.bucket(j, o.buckets[pp][o.cursors[pp]])
		o.c.Tick(1)
	}
	o.cursors[j] = 0
}

// Next produces the next answer. Each call performs O(number of parts)
// index operations: constant delay in data complexity.
func (o *odometer) Next() (database.Tuple, bool) {
	m := len(o.core.order)
	if o.dead {
		return nil, false
	}
	if !o.started {
		o.started = true
		if o.placed {
			return o.emit(), true
		}
		if len(o.buckets[0]) == 0 {
			o.dead = true
			return nil, false
		}
		for j := 0; j < m; j++ {
			o.reinit(j)
		}
		return o.emit(), true
	}
	// Advance the odometer: find the deepest position that can move.
	j := m - 1
	for j >= 0 {
		o.c.Tick(1)
		o.cursors[j]++
		if o.cursors[j] < len(o.buckets[j]) {
			break
		}
		j--
	}
	if j < 0 {
		o.dead = true
		return nil, false
	}
	for k := j + 1; k < m; k++ {
		o.reinit(k)
	}
	return o.emit(), true
}

func (o *odometer) emit() database.Tuple {
	for i, pc := range o.core.outPos {
		o.out[i] = o.row(pc[0], o.cursors[pc[0]])[pc[1]]
		o.c.Tick(1)
	}
	return o.out
}

// EnumerateLinearDelay enumerates φ(D) for any acyclic conjunctive query
// with linear-time preprocessing and delay O(‖φ‖·‖D‖) between outputs —
// Algorithm 2 of the paper (Theorem 4.3). Head variables are bound one at a
// time; after each binding the restricted instance is Yannakakis-reduced, so
// every surviving candidate value extends to at least one answer and the
// enumeration never backtracks over dead ends.
func EnumerateLinearDelay(db *database.Database, q *logic.CQ, c *delay.Counter) (delay.Enumerator, error) {
	lp, err := PrepareLinearDelay(db, q, c)
	if err != nil {
		return nil, err
	}
	return lp.Enumerate(c), nil
}

// LinearPrep is the reusable preprocessing of the linear-delay enumerator:
// the join tree with its atom relations and their full-reduced copy. One
// prep serves any number of enumeration passes via Enumerate — each pass
// re-binds head variables and re-reduces restricted copies, but never
// repeats the tree build or the base reduction.
type LinearPrep struct {
	t       *Tree
	head    []string
	base    []Rel // full-reduced copy of the tree relations; nil if the join is empty
	boolean bool  // the query has no head: Enumerate yields ⊤ or ⊥
	boolOK  bool
	// root is the first head variable's level over base, found by the first
	// pass and shared by the later ones; LinearRefresher drops it with base.
	root atomic.Pointer[rootLevel]
}

// rootLevel is the root of the head-binding search: the sorted distinct
// values of head[0] in base, and the rows read to find them, which every
// pass ticks as if it had read them itself.
type rootLevel struct {
	cands []database.Value
	rows  int64
}

// PrepareLinearDelay builds the join tree for an acyclic conjunctive query
// and full-reduces a copy of its relations (the linear preprocessing of
// Theorem 4.3). For Boolean queries it resolves the decision problem
// instead, so Enumerate is constant-time.
func PrepareLinearDelay(db *database.Database, q *logic.CQ, c *delay.Counter) (*LinearPrep, error) {
	bm := c.StartSpan("tree-build")
	t, err := BuildTree(db, q, false)
	bm.End()
	if err != nil {
		return nil, err
	}
	lp := &LinearPrep{t: t, head: q.Head}
	if len(q.Head) == 0 {
		lp.boolean = true
		ok, err := Decide(db, q, nil)
		if err != nil {
			return nil, err
		}
		lp.boolOK = ok
		return lp, nil
	}
	span := c.StartSpan("semijoin-reduce")
	defer span.End()
	lp.base = reduceCopy(t, t.Rels, c)
	return lp, nil
}

// NonEmpty reports whether the query has at least one answer — constant
// time once prepared, since full reduction leaves the base empty exactly
// when the join is empty.
func (lp *LinearPrep) NonEmpty() bool {
	if lp.boolean {
		return lp.boolOK
	}
	return lp.base != nil
}

// Enumerate starts a fresh linear-delay enumeration pass over the prepared
// instance. The base relations are shared between passes and never
// mutated: each pass restricts and re-reduces its own copies.
func (lp *LinearPrep) Enumerate(c *delay.Counter) delay.Enumerator {
	if lp.boolean {
		if lp.boolOK {
			return delay.Singleton(database.Tuple{})
		}
		return delay.Empty()
	}
	return lp.enumerate(c)
}

func (lp *LinearPrep) enumerate(c *delay.Counter) *linEnum {
	e := &linEnum{t: lp.t, head: lp.head, c: c}
	if lp.base == nil {
		e.exhausted = true
		return e
	}
	root := lp.root.Load()
	if root == nil {
		root = &rootLevel{}
		root.cands, root.rows = candidates(lp.base, lp.head[0])
		lp.root.Store(root)
	}
	c.Tick(root.rows)
	e.levels = make([]*linLevel, 1, len(lp.head))
	e.levels[0] = &linLevel{rels: lp.base, cands: root.cands, idx: -1}
	return e
}

// EnumerateAfter starts a pass at the first answer that follows after in
// the passes' order. Head variables are bound one at a time over sorted
// candidates, so a pass emits in lexicographic order of the head and its
// last answer is a position: the pass re-descends along after's path, one
// binary search and one restricted reduction per head variable — the work
// of one delay, where replaying the answers up to after costs one delay
// each. after must have one value per head variable; an after that is no
// answer resumes at the first answer above it.
func (lp *LinearPrep) EnumerateAfter(c *delay.Counter, after database.Tuple) delay.Enumerator {
	if lp.boolean {
		return delay.Empty() // the one answer, ⊤, is the only position
	}
	e := lp.enumerate(c)
	if !e.exhausted {
		e.seek(after)
	}
	return e
}

type linLevel struct {
	rels  []Rel // reduced relations with head[0..depth-1] already bound
	cands []database.Value
	idx   int
}

type linEnum struct {
	t         *Tree
	head      []string
	c         *delay.Counter
	levels    []*linLevel
	exhausted bool
}

// reduceCopy runs the full reducer over a copy of rels along t's join tree;
// it returns nil if the join is empty.
func reduceCopy(t *Tree, rels []Rel, c *delay.Counter) []Rel {
	out := make([]Rel, len(rels))
	copy(out, rels)
	for _, i := range t.postord {
		for _, ch := range t.children[i] {
			out[i] = semijoin(out[i], out[ch])
			c.Tick(int64(out[i].R.Len()) + 1)
		}
	}
	for k := len(t.postord) - 1; k >= 0; k-- {
		i := t.postord[k]
		for _, ch := range t.children[i] {
			out[ch] = semijoin(out[ch], out[i])
			c.Tick(int64(out[ch].R.Len()) + 1)
		}
	}
	for _, r := range out {
		if r.R.Len() == 0 {
			return nil
		}
	}
	return out
}

// candidates returns the sorted distinct values of v in the first of rels
// that has it, and the rows read to find them.
func candidates(rels []Rel, v string) ([]database.Value, int64) {
	for _, r := range rels {
		col := r.col(v)
		if col < 0 {
			continue
		}
		cands := make([]database.Value, len(r.R.Tuples))
		for i, t := range r.R.Tuples {
			cands[i] = t[col]
		}
		slices.Sort(cands)
		return slices.Compact(cands), int64(len(cands))
	}
	return nil, 0
}

// push appends the level for the next head variable, computing its
// candidate values from any reduced relation containing it; each row read
// ticks one step.
func (e *linEnum) push(rels []Rel) {
	cands, rows := candidates(rels, e.head[len(e.levels)])
	e.c.Tick(rows)
	e.levels = append(e.levels, &linLevel{rels: rels, cands: cands, idx: -1})
}

// seek places a fresh pass so that Next yields the first answer after
// after: each level binds after's value when it is a candidate and
// descends, and otherwise stops just below the first candidate above it.
// A binary search ticks one step per level.
func (e *linEnum) seek(after database.Tuple) {
	for i := range e.head {
		lv := e.levels[i]
		k, found := slices.BinarySearch(lv.cands, after[i])
		e.c.Tick(1)
		if !found {
			lv.idx = k - 1
			return
		}
		lv.idx = k
		if i == len(e.head)-1 {
			return
		}
		next := reduceCopy(e.t, restrict(lv.rels, e.head[i], after[i], e.c), e.c)
		if next == nil {
			return // defensive, as in Next: the candidate is skipped
		}
		e.push(next)
	}
}

// restrict returns copies of rels with every relation containing v filtered
// to tuples where v = val.
func restrict(rels []Rel, v string, val database.Value, c *delay.Counter) []Rel {
	out := make([]Rel, len(rels))
	for i, r := range rels {
		col := r.col(v)
		if col < 0 {
			out[i] = r
			continue
		}
		c.Tick(int64(r.R.Len()))
		out[i] = Rel{Schema: r.Schema, R: r.R.Select(r.R.Name, func(t database.Tuple) bool {
			return t[col] == val
		})}
	}
	return out
}

func (e *linEnum) Next() (database.Tuple, bool) {
	if e.exhausted {
		return nil, false
	}
	for {
		i := len(e.levels) - 1
		if i < 0 {
			e.exhausted = true
			return nil, false
		}
		lv := e.levels[i]
		lv.idx++
		if lv.idx >= len(lv.cands) {
			e.levels = e.levels[:i]
			continue
		}
		val := lv.cands[lv.idx]
		if i == len(e.head)-1 {
			out := make(database.Tuple, len(e.head))
			for k, l := range e.levels {
				out[k] = l.cands[l.idx]
			}
			return out, true
		}
		// Bind head[i] := val, reduce, descend. Reduction cannot fail:
		// every candidate survives by full reduction of the parent level.
		next := reduceCopy(e.t, restrict(lv.rels, e.head[i], val, e.c), e.c)
		if next == nil {
			// Defensive: should not happen after full reduction.
			continue
		}
		e.push(next)
	}
}
