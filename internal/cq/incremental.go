package cq

// Incremental maintenance of the enumeration spines (delta-binding).
//
// A bound constant-delay plan holds the fully Yannakakis-reduced "free
// parts" of the Theorem 4.6 construction, frozen into slabs and CSR hash
// indexes. Rebuilding all of that on every base mutation is the re-Bind
// cliff; this file maintains it incrementally instead, in the style of
// counting-based incremental view maintenance (the enumeration-under-
// updates line of "Enumeration Complexity: Incremental Time, Delay and
// Space", PAPERS.md).
//
// The reduced state is a composition of select-project-semijoin nodes:
//
//	b[i]     = π_keep( atom_i ⋉ b[c1] ⋉ ... ⋉ b[ck] )   (elimination pass)
//	up[j]    = part_j ⋉ up[children]                     (bottom-up pass)
//	final[r] = up[r],  final[j] = up[j] ⋉ final[parent]  (top-down pass)
//
// Each node (incNode) maintains its output SET under input deltas with
// counters: per source row a multiplicity and the number of semijoin
// edges with no support ("missing"), per edge a support count for each
// join key, and per output tuple the number of alive source rows
// projecting to it. Every operation restores the invariants locally, so
// the order of deltas within a pass does not matter; a node emits only
// the net presence transitions of its output tuples, which become the
// input deltas of its parent. One topological sweep per Apply therefore
// propagates a base delta to the fully-reduced sets exactly.
//
// Because globally consistent (fully reduced) tuple sets are canonical —
// independent of which join tree the reducer used — the refresher may
// run its own GYO tree over the part schemas and still land on exactly
// the sets the bound core holds. That is what lets Apply patch the
// core's slabs, indexes, and root bucket in place: set-level deltas are
// translated to row-id insertions (Slab.Append + Index.AddRow) and
// removals (Index.RemoveRow, root swap-remove).
//
// Both refreshers drive ONE reducer (the reducer type below): atom filters
// feed the base deltas into a tree of parts — on the constant-delay route
// through the elimination layer of the head-extended tree first — and one
// function, layer.sweep, runs every layer: bottom-up, then top-down. The
// reducer also holds the ONE bound on how far a patched spine may degrade,
// the budget: every delta tuple fed into a node and every row added to or
// removed from a fully-reduced part is charged to it, and once the charge
// passes half of what the build itself was charged (plus 1024) Apply
// declines. What patching leaves behind is paid for that way: a tombstoned
// slab row and a cut index slot are a part row removed, a relocated index
// bucket is a part row added, and a dead node row (a source row whose
// count fell to 0 is never unlinked) is the projection of a tuple that
// was charged when it was fed. The rebuild that follows — O(1) amortised
// per change, since the limit grows with the base — reclaims all of it;
// nothing compacts in place.
//
// Any inconsistency — a delete of an untracked occurrence, a support
// underflow, a full slab, a spent budget — makes Apply return false
// WITHOUT attempting repair. The caller must then discard the refresher
// and fall back to a full rebuild, which is always correct; partial
// node-state mutations before the failure are harmless because nothing
// reads the refresher again.

import (
	"fmt"

	"repro/internal/database"
	"repro/internal/hypergraph"
	"repro/internal/logic"
)

// setDelta is the net presence change of a maintained set: tuples that
// appeared and tuples that vanished. The two lists are disjoint.
type setDelta struct {
	add []database.Tuple
	del []database.Tuple
}

// incRow is one tracked source tuple of a node: its multiplicity in the
// (multiset) source and how many edges currently have no support for it.
// The row is alive — contributes to the node's output — iff count > 0 and
// missing == 0.
type incRow struct {
	count   int
	missing int
}

func (r *incRow) alive() bool { return r.count > 0 && r.missing == 0 }

// incEdge is one semijoin edge of a node: keys interns the join keys of
// the node's source rows and the child's output tuples alike, support
// counts the alive output tuples of the child per key, and group collects
// the source rows sharing a key so 0↔1 support transitions can flip their
// missing counters. An edge with no shared columns degenerates to the
// single empty key — support is then the child's output size, matching
// semijoin's no-shared-variables case.
type incEdge struct {
	selfCols  []int // key columns in this node's source schema
	childCols []int // aligned key columns in the child's output schema
	keys      *database.KeyMap
	support   []int     // per key id
	group     [][]int32 // per key id: source row ids
}

// key interns u's projection onto cols, growing the per-key slices.
func (e *incEdge) key(u database.Tuple, cols []int) int {
	k := e.keys.Intern(u, cols)
	if k == len(e.support) {
		e.support = append(e.support, 0)
		e.group = append(e.group, nil)
	}
	return k
}

// incOut is one output tuple: the number of alive source rows projecting
// to it (the tuple is present iff n > 0) and, once touched in a pass, its
// presence before the pass.
type incOut struct {
	n       int
	touched bool
	prev    bool
}

// incNode maintains one select-project-semijoin view. Feed it source and
// child deltas in any order, then call finish to collect the net output
// delta of the pass. Source tuples and output tuples are interned in
// KeyMaps whose ids index rows and outs; a source row whose count fell to
// 0 and an output tuple that vanished keep their ids.
type incNode struct {
	projCols []int // output projection columns; nil = identity
	edges    []*incEdge
	src      *database.KeyMap
	rows     []incRow // per source id
	out      *database.KeyMap
	outs     []incOut // per output id
	order    []int32  // output ids in first-touch order, for deterministic emission
	fail     bool
}

// newIncNode starts a node over source tuples of the given arity.
func newIncNode(arity int, projCols []int) *incNode {
	width := arity
	if projCols != nil {
		width = len(projCols)
	}
	return &incNode{projCols: projCols, src: database.NewKeyMap(arity), out: database.NewKeyMap(width)}
}

func (nd *incNode) addEdge(selfCols, childCols []int) {
	nd.edges = append(nd.edges, &incEdge{
		selfCols:  selfCols,
		childCols: childCols,
		keys:      database.NewKeyMap(len(selfCols)),
	})
}

// srcAdd raises the multiplicity of source tuple t by n, registering it
// on first sight (grouping it on its edge keys against current support).
func (nd *incNode) srcAdd(t database.Tuple, n int) {
	id := nd.src.Intern(t, nil)
	if id == len(nd.rows) {
		var row incRow
		for _, e := range nd.edges {
			k := e.key(t, e.selfCols)
			e.group[k] = append(e.group[k], int32(id))
			if e.support[k] == 0 {
				row.missing++
			}
		}
		nd.rows = append(nd.rows, row)
	}
	row := &nd.rows[id]
	was := row.alive()
	row.count += n
	if !was && row.alive() {
		nd.outInc(id)
	}
}

// srcDel lowers the multiplicity of source tuple t by n; false signals
// an untracked or over-deleted occurrence (caller must rebuild).
func (nd *incNode) srcDel(t database.Tuple, n int) bool {
	id := nd.src.Find(t, nil)
	if id < 0 || nd.rows[id].count < n {
		return false
	}
	row := &nd.rows[id]
	was := row.alive()
	row.count -= n
	if was && !row.alive() {
		nd.outDec(id)
	}
	return true
}

// childAdd records one new output tuple of the child behind edge ei.
func (nd *incNode) childAdd(ei int, u database.Tuple) {
	e := nd.edges[ei]
	k := e.key(u, e.childCols)
	e.support[k]++
	if e.support[k] == 1 {
		for _, id := range e.group[k] {
			row := &nd.rows[id]
			row.missing--
			if row.alive() {
				nd.outInc(int(id))
			}
		}
	}
}

// childDel records one vanished output tuple of the child behind edge
// ei; false signals a support underflow.
func (nd *incNode) childDel(ei int, u database.Tuple) bool {
	e := nd.edges[ei]
	k := e.keys.Find(u, e.childCols)
	if k < 0 || e.support[k] == 0 {
		return false
	}
	if e.support[k]--; e.support[k] > 0 {
		return true
	}
	for _, id := range e.group[k] {
		row := &nd.rows[id]
		if row.alive() {
			nd.outDec(int(id))
		}
		row.missing++
	}
	return true
}

// outInc counts source row id in to its output tuple.
func (nd *incNode) outInc(id int) {
	o := nd.out.Intern(nd.src.Key(id), nd.projCols)
	if o == len(nd.outs) {
		nd.outs = append(nd.outs, incOut{})
	}
	nd.touch(o)
	nd.outs[o].n++
}

// outDec counts source row id out of its output tuple.
func (nd *incNode) outDec(id int) {
	o := nd.out.Find(nd.src.Key(id), nd.projCols)
	if o < 0 || nd.outs[o].n == 0 {
		nd.fail = true
		return
	}
	nd.touch(o)
	nd.outs[o].n--
}

func (nd *incNode) touch(o int) {
	if out := &nd.outs[o]; !out.touched {
		out.touched, out.prev = true, out.n > 0
		nd.order = append(nd.order, int32(o))
	}
}

// finish collects the net presence transitions of the pass, in first-
// touch order (deterministic for a given delta), and resets the pass
// bookkeeping.
func (nd *incNode) finish() (setDelta, bool) {
	if nd.fail {
		return setDelta{}, false
	}
	var d setDelta
	for _, o := range nd.order {
		out := &nd.outs[o]
		switch now := out.n > 0; {
		case now && !out.prev:
			d.add = append(d.add, nd.out.Key(int(o)))
		case !now && out.prev:
			d.del = append(d.del, nd.out.Key(int(o)))
		}
		out.touched = false
	}
	nd.order = nd.order[:0]
	return d, true
}

// --- atom filtering ---------------------------------------------------

// atomFilter replicates AtomRelation at the tuple level: the constant and
// repeated-variable selection plus the projection onto the atom's
// distinct variables (first-occurrence columns). Feeding every base
// occurrence through it yields the atom's relation as a multiset, which
// is what survives duplicate inserts and occurrence-level deletes.
type atomFilter struct {
	atom  logic.Atom
	first map[string]int
	cols  []int
}

func newAtomFilter(a logic.Atom) atomFilter {
	first := make(map[string]int)
	for i, arg := range a.Args {
		if !arg.IsConst {
			if _, ok := first[arg.Var]; !ok {
				first[arg.Var] = i
			}
		}
	}
	vars := a.Vars()
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = first[v]
	}
	return atomFilter{atom: a, first: first, cols: cols}
}

func (f *atomFilter) match(t database.Tuple) bool {
	for i, arg := range f.atom.Args {
		if arg.IsConst {
			if t[i] != arg.Const {
				return false
			}
		} else if t[i] != t[f.first[arg.Var]] {
			return false
		}
	}
	return true
}

func (f *atomFilter) proj(t database.Tuple) database.Tuple {
	out := make(database.Tuple, len(f.cols))
	for i, c := range f.cols {
		out[i] = t[c]
	}
	return out
}

// feed pushes one base-relation delta through the filter into the node's
// source, returning how many occurrences it fed. Inserts land before
// deletes (the caller batches them so), so a net-zero churn inside one
// window cannot underflow the counters.
func (f *atomFilter) feed(nd *incNode, d database.Delta) (int, bool) {
	n := 0
	for _, t := range d.Ins {
		if f.match(t) {
			nd.srcAdd(f.proj(t), 1)
			n++
		}
	}
	for _, t := range d.Del {
		if f.match(t) {
			if !nd.srcDel(f.proj(t), 1) {
				return n, false
			}
			n++
		}
	}
	return n, true
}

// --- the reducer --------------------------------------------------------

// layer is one pass of semijoin nodes: order visits them so that the
// nodes from[i] — whose output deltas feed node i's edges, edge e from
// node from[i][e] — come before i.
type layer struct {
	nodes []*incNode
	order []int
	from  [][]int
}

// newLayer builds the nodes of one pass. Node i reads schemas[i] and emits
// its projection onto outs[i]; nil outs is the identity throughout.
func newLayer(schemas, outs [][]string, order []int, from [][]int) *layer {
	emits := outs
	if emits == nil {
		emits = schemas
	}
	ly := &layer{nodes: make([]*incNode, len(from)), order: order, from: from}
	for _, i := range order {
		var projCols []int
		if outs != nil {
			// Non-nil also when empty: an arity-0 projection is no identity.
			projCols = make([]int, len(outs[i]))
			for k, v := range outs[i] {
				projCols[k] = Rel{Schema: schemas[i]}.col(v)
			}
		}
		nd := newIncNode(len(schemas[i]), projCols)
		for _, j := range from[i] {
			nd.addEdge(commonCols(Rel{Schema: schemas[i]}, Rel{Schema: emits[j]}))
		}
		ly.nodes[i] = nd
	}
	return ly
}

// sweep runs one pass: every node takes its source delta — src[i]; a nil
// src means the sources were fed directly — and the output deltas of the
// nodes feeding its edges, and emits its own net delta.
func (ly *layer) sweep(src []setDelta) ([]setDelta, bool) {
	out := make([]setDelta, len(ly.nodes))
	for _, i := range ly.order {
		nd := ly.nodes[i]
		if src != nil {
			for _, u := range src[i].add {
				nd.srcAdd(u, 1)
			}
			for _, u := range src[i].del {
				if !nd.srcDel(u, 1) {
					return nil, false
				}
			}
		}
		for e, j := range ly.from[i] {
			for _, u := range out[j].add {
				nd.childAdd(e, u)
			}
			for _, u := range out[j].del {
				if !nd.childDel(e, u) {
					return nil, false
				}
			}
		}
		var ok bool
		if out[i], ok = nd.finish(); !ok {
			return nil, false
		}
	}
	return out, true
}

// reducer is the maintenance pipeline of one bound spine: per-atom filters
// feeding the base deltas into the lowest layer, the constant-delay
// route's elimination layer (nil on the linear-delay route, whose parts
// are the atoms themselves), and the two-pass full reducer over the tree
// of parts. It owns the budget.
type reducer struct {
	filters []atomFilter // aligned with the query's atoms
	elim    *layer       // over the atom nodes of the head-extended tree
	partOf  []int        // with elim: part p is the output of elim node partOf[p]
	parts   []setDelta   // run's scratch for the parts' source deltas
	up, fin *layer       // bottom-up and top-down over the parts' join tree

	spent, limit int // the budget; limit 0 while the build itself runs
}

// reduceOver installs the two-pass reducer over the parts' join tree jt.
// Reverse postorder visits parents first: final[parent] is settled before
// its delta feeds the child's one edge.
func (rd *reducer) reduceOver(schemas [][]string, jt *hypergraph.JoinTree) {
	post := postorder(jt)
	pre := make([]int, len(post))
	above := make([][]int, len(post))
	for k, i := range post {
		pre[len(post)-1-k] = i
		if p := jt.Parent[i]; p >= 0 {
			above[i] = []int{p}
		}
	}
	rd.up = newLayer(schemas, nil, post, jt.Children())
	rd.fin = newLayer(schemas, nil, pre, above)
}

// run pushes one base delta batch through every layer and returns the net
// delta of each fully-reduced part, charging the budget with every tuple
// fed in and every part row added or removed. It declines — before
// touching any state — once the budget is spent.
func (rd *reducer) run(deltas map[string]database.Delta) ([]setDelta, bool) {
	if rd.limit > 0 && rd.spent > rd.limit {
		return nil, false
	}
	lowest := rd.up
	if rd.elim != nil {
		lowest = rd.elim
	}
	for i := range rd.filters {
		f := &rd.filters[i]
		n, ok := f.feed(lowest.nodes[i], deltas[f.atom.Pred])
		if !ok {
			return nil, false
		}
		rd.spent += n
	}
	var parts []setDelta
	if rd.elim != nil {
		out, ok := rd.elim.sweep(nil)
		if !ok {
			return nil, false
		}
		parts = rd.parts
		for p, i := range rd.partOf {
			parts[p] = out[i]
		}
	}
	upOut, ok := rd.up.sweep(parts)
	clear(rd.parts)
	if !ok {
		return nil, false
	}
	finOut, ok := rd.fin.sweep(upOut)
	if !ok {
		return nil, false
	}
	for _, d := range finOut {
		rd.spent += len(d.add) + len(d.del)
	}
	return finOut, true
}

// load materializes the fully-reduced parts by making the whole base the
// first delta (the build IS the first run, from empty) and arms the budget
// at half of what that build was charged.
func (rd *reducer) load(db *database.Database, q *logic.CQ) ([]setDelta, error) {
	initial := make(map[string]database.Delta)
	for _, a := range q.Atoms {
		if _, done := initial[a.Pred]; !done {
			initial[a.Pred] = database.Delta{Ins: db.Relation(a.Pred).Tuples}
		}
	}
	finOut, ok := rd.run(initial)
	if !ok {
		return nil, fmt.Errorf("cq: internal: initial maintenance pass failed for %s", q.Name)
	}
	rd.limit = rd.spent/2 + 1024
	rd.spent = 0
	return finOut, nil
}

// newReducer starts a reducer with one filter per atom of q, which also
// gives each atom's schema (its distinct variables).
func newReducer(q *logic.CQ) (*reducer, [][]string) {
	rd := &reducer{filters: make([]atomFilter, len(q.Atoms))}
	schemas := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		rd.filters[i] = newAtomFilter(a)
		schemas[i] = a.Vars()
	}
	return rd, schemas
}

// --- constant-delay refresher -----------------------------------------

// ConstRefresher incrementally maintains a bound OdometerCore under base
// relation deltas. Built by NewConstRefresher together with the core it
// patches; Apply pushes one delta batch through the reducer and patches
// the core's slabs, indexes, and root bucket in place. Patching moves rows
// out of the contiguous buckets the core's links name, so Apply drops the
// links and the core answers through its indexes until the budget rebuild
// lays a fresh one out. A false return means the refresher could not apply
// the delta safely — the caller must discard BOTH the refresher and the
// core and rebuild.
type ConstRefresher struct {
	rd *reducer

	// Core patching state.
	core    *OdometerCore
	pos     []rowMap      // per core position
	rootIdx map[int32]int // root row id -> index in core.root
	sizes   []int         // live rows per core position
}

// rowMap maps the tuples of one core position to their row ids; a deleted
// tuple keeps its key, with row id -1.
type rowMap struct {
	keys *database.KeyMap
	ids  []int32 // per key id
}

// set records t at row id.
func (m *rowMap) set(t database.Tuple, id int32) {
	if k := m.keys.Intern(t, nil); k < len(m.ids) {
		m.ids[k] = id
	} else {
		m.ids = append(m.ids, id)
	}
}

// take returns t's row id and forgets it, or -1 when t has no row.
func (m *rowMap) take(t database.Tuple) int32 {
	k := m.keys.Find(t, nil)
	if k < 0 {
		return -1
	}
	id := m.ids[k]
	m.ids[k] = -1
	return id
}

// NewConstRefresher builds the reducer for a free-connex query over db —
// the elimination layer over the head-extended join tree, then the parts
// reduced over the refresher's own join tree of their schemas (valid by
// join-tree independence of full reduction) — loads the base through it,
// and returns the refresher together with the OdometerCore it maintains.
func NewConstRefresher(db *database.Database, q *logic.CQ) (*ConstRefresher, *OdometerCore, error) {
	t, err := BuildTree(db, q, true)
	if err != nil {
		return nil, nil, err
	}
	// The head's children carry the free parts.
	partNode := t.children[t.HeadIdx]
	if len(partNode) == 0 {
		return nil, nil, fmt.Errorf("cq: internal: head node has no children for %s", q.Name)
	}
	rd, schemas := newReducer(q)
	// The head is the root, hence last in postorder: the elimination layer
	// is every node before it.
	outs := make([][]string, len(schemas))
	free := headSet(q)
	for i := range outs {
		outs[i] = t.keptVars(i, schemas[i], free)
	}
	rd.elim = newLayer(schemas, outs, t.postord[:len(q.Atoms)], t.children)
	rd.partOf, rd.parts = partNode, make([]setDelta, len(partNode))
	partSchemas := make([][]string, len(partNode))
	for p, node := range partNode {
		partSchemas[p] = outs[node]
	}
	jt, err := partsTree(partSchemas)
	if err != nil {
		return nil, nil, err
	}
	rd.reduceOver(partSchemas, jt)

	finOut, err := rd.load(db, q)
	if err != nil {
		return nil, nil, err
	}
	parts := make([]Rel, len(partNode))
	for p := range parts {
		parts[p] = Rel{
			Schema: partSchemas[p],
			R:      database.FromTuples(fmt.Sprintf("P%d", p), len(partSchemas[p]), finOut[p].add),
		}
	}
	// The parts are already fully reduced, so the core's internal
	// reduction passes change nothing (full reduction is idempotent, and
	// its result is the same for any join tree).
	core, err := NewOdometerCore(q.Head, parts, nil)
	if err != nil {
		return nil, nil, err
	}
	cr := &ConstRefresher{rd: rd, core: core}
	cr.pos = make([]rowMap, len(core.order))
	cr.sizes = make([]int, len(core.order))
	for j := range core.order {
		rel := core.rels[j].R
		cr.sizes[j] = rel.Len()
		cr.pos[j] = rowMap{keys: database.NewKeyMap(rel.Arity)}
		for i, tp := range rel.Tuples {
			cr.pos[j].set(tp, int32(i))
		}
	}
	cr.rootIdx = make(map[int32]int, len(core.root))
	for i, id := range core.root {
		cr.rootIdx[id] = i
	}
	return cr, core, nil
}

// Apply pushes one base delta batch through the reducer and patches the
// bound core in place. On false the refresher and the core must both be
// discarded (node state may have advanced past the core's), and the
// caller rebuilds from scratch — always safe, never wrong answers.
func (cr *ConstRefresher) Apply(deltas map[string]database.Delta) bool {
	finOut, ok := cr.rd.run(deltas)
	if !ok {
		return false
	}
	core := cr.core
	core.DropLinks()
	for p, d := range finOut {
		j := core.origPos[p]
		for _, t := range d.del {
			id := cr.pos[j].take(t)
			if id < 0 {
				return false
			}
			if j == 0 {
				ri, ok := cr.rootIdx[id]
				if !ok {
					return false
				}
				last := len(core.root) - 1
				core.root[ri] = core.root[last]
				cr.rootIdx[core.root[ri]] = ri
				core.root = core.root[:last]
				delete(cr.rootIdx, id)
			} else if !core.idx[j].RemoveRow(id) {
				return false
			}
			cr.sizes[j]--
		}
		for _, t := range d.add {
			var id int32
			if len(core.rels[j].Schema) == 0 {
				// Arity-0 part: the maintained set is {} or {()}, so the
				// single (empty) row always has id 0 and the slab — which
				// cannot store zero-width rows — is left untouched. Index
				// probes over the empty column set never read the slab.
				if j != 0 {
					core.idx[j].AddRow(0)
				}
			} else {
				if core.slabs[j].Full() {
					return false
				}
				var slab database.Slab
				slab, id = core.slabs[j].Append(t)
				core.slabs[j] = slab
				if j != 0 {
					core.idx[j].SetSlab(slab)
					core.idx[j].AddRow(id)
				}
			}
			if j == 0 {
				cr.rootIdx[id] = len(core.root)
				core.root = append(core.root, id)
			}
			cr.pos[j].set(t, id)
			cr.sizes[j]++
		}
	}
	core.dead = false
	for _, n := range cr.sizes {
		if n == 0 {
			core.dead = true
		}
	}
	return true
}

// --- linear-delay refresher -------------------------------------------

// LinearRefresher incrementally maintains a LinearPrep's fully-reduced
// base relations under base deltas. The maintained relations are patched
// through InsertBatch/DeleteBatch — enumeration passes restrict copies,
// so no row ids dangle — and the boolean fast path is kept in sync.
type LinearRefresher struct {
	rd   *reducer
	rels []Rel // maintained fully-reduced base, aligned with the tree's Rels
	lp   *LinearPrep
}

// NewLinearRefresher builds the reducer for an acyclic query — its parts
// are the atoms, reduced over the query's own join tree — loads the base
// through it, and returns the refresher with the LinearPrep it maintains.
func NewLinearRefresher(db *database.Database, q *logic.CQ) (*LinearRefresher, *LinearPrep, error) {
	t, err := BuildTree(db, q, false)
	if err != nil {
		return nil, nil, err
	}
	rd, schemas := newReducer(q)
	rd.reduceOver(schemas, t.JT)
	finOut, err := rd.load(db, q)
	if err != nil {
		return nil, nil, err
	}
	lr := &LinearRefresher{rd: rd, rels: make([]Rel, len(schemas))}
	for i, a := range q.Atoms {
		lr.rels[i] = Rel{
			Schema: schemas[i],
			R:      database.FromTuples(a.Pred, len(schemas[i]), finOut[i].add),
		}
	}
	lr.lp = &LinearPrep{t: t, head: q.Head, boolean: len(q.Head) == 0}
	lr.sync()
	return lr, lr.lp, nil
}

// sync re-derives the LinearPrep's derived state from the maintained
// relations: base is exposed only when the join is nonempty (all reduced
// relations nonempty), boolean queries resolve to that same check, and the
// root level is dropped for the next pass to find again.
func (lr *LinearRefresher) sync() {
	lr.lp.root.Store(nil)
	nonempty := true
	for _, r := range lr.rels {
		if r.R.Len() == 0 {
			nonempty = false
		}
	}
	if lr.lp.boolean {
		lr.lp.boolOK = nonempty
		return
	}
	if nonempty {
		lr.lp.base = lr.rels
	} else {
		lr.lp.base = nil
	}
}

// Apply pushes one base delta batch through the reducer and patches the
// maintained relations. On false the refresher and prep must be
// discarded and rebuilt.
func (lr *LinearRefresher) Apply(deltas map[string]database.Delta) bool {
	finOut, ok := lr.rd.run(deltas)
	if !ok {
		return false
	}
	for i := range lr.rels {
		d := finOut[i]
		if len(d.del) > 0 && lr.rels[i].R.DeleteBatch(d.del) != len(d.del) {
			return false
		}
		if err := lr.rels[i].R.InsertBatch(d.add); err != nil {
			return false
		}
	}
	lr.sync()
	return true
}
