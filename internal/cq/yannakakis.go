package cq

import (
	"fmt"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/hypergraph"
	"repro/internal/logic"
)

// Tree is a join tree of an acyclic conjunctive query with the atom
// relations attached to its nodes. If the tree was built for the
// free-connex construction, node HeadIdx is the synthetic head edge and
// carries no relation.
type Tree struct {
	Q       *logic.CQ
	JT      *hypergraph.JoinTree
	Rels    []Rel // aligned with JT.Nodes; Rels[HeadIdx].R == nil
	HeadIdx int   // index of the synthetic head node, or -1

	children [][]int
	postord  []int
}

// BuildTree constructs a join tree for q over db. With withHead set, the
// synthetic head edge {free(q)} is added (Definition 4.4) and the tree is
// rooted at it; q must then be free-connex.
func BuildTree(db *database.Database, q *logic.CQ, withHead bool) (*Tree, error) {
	if err := checkPlainACQ(q); err != nil {
		return nil, err
	}
	h := q.Hypergraph()
	headIdx := -1
	if withHead {
		headIdx = len(h.Edges)
		h.AddEdge(hypergraph.NewEdge("__head__", q.Head...))
	}
	jt, ok := hypergraph.GYO(h)
	if !ok {
		if withHead {
			return nil, fmt.Errorf("cq: query %s is not free-connex", q.Name)
		}
		return nil, fmt.Errorf("cq: query %s is not acyclic", q.Name)
	}
	if withHead {
		jt.Reroot(headIdx)
	}
	t := &Tree{Q: q, JT: jt, HeadIdx: headIdx}
	t.Rels = make([]Rel, len(jt.Nodes))
	for i, a := range q.Atoms {
		r, err := AtomRelation(db, a)
		if err != nil {
			return nil, err
		}
		t.Rels[i] = r
	}
	t.children = jt.Children()
	t.postord = postorder(jt)
	return t, nil
}

// postorder returns the node indices so that children precede parents.
func postorder(jt *hypergraph.JoinTree) []int {
	ch := jt.Children()
	var out []int
	var rec func(i int)
	rec = func(i int) {
		for _, c := range ch[i] {
			rec(c)
		}
		out = append(out, i)
	}
	if r := jt.Root(); r >= 0 {
		rec(r)
	}
	return out
}

// FullReduce runs the Yannakakis full reducer: a bottom-up semijoin pass
// followed by a top-down pass. Afterwards every tuple of every relation
// participates in at least one solution of the full join. It reports
// whether the join is nonempty.
//
// c (nil for none) is ticked once per semijoin result tuple, so the
// reducer's O(‖φ‖·‖D‖) work is observable as counted steps.
func (t *Tree) FullReduce(c *delay.Counter) bool {
	if t.HeadIdx >= 0 {
		panic("cq: FullReduce on a head-extended tree")
	}
	span := c.StartSpan("semijoin-reduce")
	defer span.End()
	// Bottom-up.
	for _, i := range t.postord {
		for _, ch := range t.children[i] {
			t.Rels[i] = semijoin(t.Rels[i], t.Rels[ch])
			c.Tick(int64(t.Rels[i].R.Len()) + 1)
		}
	}
	// Top-down.
	for k := len(t.postord) - 1; k >= 0; k-- {
		i := t.postord[k]
		for _, ch := range t.children[i] {
			t.Rels[ch] = semijoin(t.Rels[ch], t.Rels[i])
			c.Tick(int64(t.Rels[ch].R.Len()) + 1)
		}
	}
	for _, r := range t.Rels {
		if r.R.Len() == 0 {
			return false
		}
	}
	return true
}

// Decide answers the Boolean query problem for an acyclic conjunctive query
// via the bottom-up semijoin pass (Theorem 4.2 specialized to sentences):
// time O(‖φ‖·‖D‖) up to hashing. c (nil for none) counts as in FullReduce.
func Decide(db *database.Database, q *logic.CQ, c *delay.Counter) (bool, error) {
	bm := c.StartSpan("tree-build")
	t, err := BuildTree(db, q, false)
	bm.End()
	if err != nil {
		return false, err
	}
	span := c.StartSpan("semijoin-reduce")
	defer span.End()
	for _, i := range t.postord {
		for _, ch := range t.children[i] {
			t.Rels[i] = semijoin(t.Rels[i], t.Rels[ch])
			c.Tick(int64(t.Rels[i].R.Len()) + 1)
		}
		if t.Rels[i].R.Len() == 0 {
			return false, nil
		}
	}
	return true, nil
}

// Eval computes φ(D) for an acyclic conjunctive query with the Yannakakis
// algorithm (Theorem 4.2): full reduction, then a bottom-up join pass that
// projects each intermediate result onto the variables still needed (head
// variables of the subtree plus the separator towards the parent), keeping
// intermediate results within O(‖φ(D)‖·‖D‖). Answers are in head order,
// deduplicated and sorted.
//
// c (nil for none) is ticked once per tuple of every intermediate semijoin,
// join, and projection result.
func Eval(db *database.Database, q *logic.CQ, c *delay.Counter) ([]database.Tuple, error) {
	bm := c.StartSpan("tree-build")
	t, err := BuildTree(db, q, false)
	bm.End()
	if err != nil {
		return nil, err
	}
	if !t.FullReduce(c) {
		return nil, nil
	}
	span := c.StartSpan("join")
	defer span.End()
	head := headSet(q)
	// acc[i] = join of subtree(i) projected onto subtree head vars ∪ sep to
	// parent.
	acc := make([]Rel, len(t.Rels))
	for _, i := range t.postord {
		acc[i] = t.evalNode(i, head, acc, c)
	}
	root := acc[t.JT.Root()]
	out := project(root, q.Head)
	out.R.Dedup()
	c.Tick(int64(out.R.Len()) + 1)
	return out.R.Tuples, nil
}

// evalNode computes acc[i] of the Eval join pass: the join of node i with
// its children's accumulators, projected onto the head variables present
// plus the separator towards the parent. It only reads acc entries of the
// node's children.
func (t *Tree) evalNode(i int, head map[string]bool, acc []Rel, c *delay.Counter) Rel {
	a := t.Rels[i]
	for _, ch := range t.children[i] {
		a = join(a.R.Name, a, acc[ch])
		c.Tick(int64(a.R.Len()) + 1)
	}
	// Keep: head vars present in a's schema, plus vars shared with the
	// parent node.
	keep := make(map[string]bool)
	for _, v := range a.Schema {
		if head[v] {
			keep[v] = true
		}
	}
	if p := t.JT.Parent[i]; p >= 0 {
		pe := t.JT.Nodes[p]
		for _, v := range a.Schema {
			if pe.Has(v) {
				keep[v] = true
			}
		}
	}
	a = project(a, sortedVars(keep))
	a.R.Dedup()
	c.Tick(int64(a.R.Len()) + 1)
	return a
}
