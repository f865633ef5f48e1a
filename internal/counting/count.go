package counting

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/hypergraph"
	"repro/internal/logic"
)

// CountFullJoin computes the weighted count Σ_{a ∈ ⋈rels} Π_v w(a[v]) of a
// full (projection-free) acyclic join by dynamic programming over a join
// tree (Theorem 4.21). Every variable is charged at its topmost occurrence
// in the tree so its weight is multiplied exactly once. The schemas of rels
// must form an acyclic hypergraph and their union must cover vars.
//
// c (nil for none) receives phase spans ("tree-build" for the GYO run,
// "semijoin-reduce" for the full reduction, "count" for the DP) through its
// sink. The counting pass predates step counting, so c is never ticked: it
// only carries the observability sink.
func CountFullJoin(rels []cq.Rel, vars []string, w Weight, s Semiring, c *delay.Counter) (interface{}, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("counting: no relations")
	}
	covered := make(map[string]bool)
	wanted := make(map[string]bool, len(vars))
	for _, v := range vars {
		wanted[v] = true
	}
	h := hypergraph.New()
	for i, r := range rels {
		h.AddEdge(hypergraph.NewEdge(fmt.Sprintf("N%d", i), r.Schema...))
		for _, v := range r.Schema {
			covered[v] = true
			if !wanted[v] {
				return nil, fmt.Errorf("counting: relation variable %q not among the counted variables", v)
			}
		}
	}
	for _, v := range vars {
		if !covered[v] {
			return nil, fmt.Errorf("counting: variable %q not covered by any relation", v)
		}
	}
	tspan := c.StartSpan("tree-build")
	jt, ok := hypergraph.GYO(h)
	tspan.End()
	if !ok {
		return nil, fmt.Errorf("counting: join not acyclic: %s", schemasOf(rels))
	}
	ch := jt.Children()
	// Full reduce along the tree so the DP never mixes dangling tuples.
	rspan := c.StartSpan("semijoin-reduce")
	post := postorderOf(jt)
	red := make([]cq.Rel, len(rels))
	copy(red, rels)
	for _, i := range post {
		for _, c := range ch[i] {
			red[i] = cq.SemijoinRel(red[i], red[c])
		}
	}
	for k := len(post) - 1; k >= 0; k-- {
		i := post[k]
		for _, c := range ch[i] {
			red[c] = cq.SemijoinRel(red[c], red[i])
		}
	}
	rspan.End()
	cspan := c.StartSpan("count")
	defer cspan.End()
	// Charge each requested variable to its topmost node (preorder-first).
	charged := make([][]int, len(rels)) // column indexes charged at node i
	assigned := make(map[string]bool)
	wantVar := make(map[string]bool, len(vars))
	for _, v := range vars {
		wantVar[v] = true
	}
	var pre []int
	var rec func(i int)
	rec = func(i int) {
		pre = append(pre, i)
		for _, c := range ch[i] {
			rec(c)
		}
	}
	rec(jt.Root())
	for _, i := range pre {
		for col, v := range red[i].Schema {
			if wantVar[v] && !assigned[v] {
				assigned[v] = true
				charged[i] = append(charged[i], col)
			}
		}
	}
	// Bottom-up DP: per node, a KeyMap assigns dense ids to the distinct
	// separator projections and vals[id] accumulates Σ over tuples of node i
	// of (Π charged weights · Π children sums). Probing a child's sum is a
	// fingerprint lookup (Find) — no string keys are built anywhere in the
	// DP loop.
	type nodeSums struct {
		ids  *database.KeyMap
		vals []interface{}
	}
	sums := make([]nodeSums, len(rels))
	for _, i := range post {
		parent := jt.Parent[i]
		var sepChild []int
		if parent >= 0 {
			for col, v := range red[i].Schema {
				if red[parent].Col(v) >= 0 {
					sepChild = append(sepChild, col)
				}
			}
		}
		// Hoist the separator column lists towards each child out of the
		// tuple loop.
		kids := ch[i]
		childCols := make([][]int, len(kids))
		for k, c := range kids {
			childCols[k] = childSepParentCols(red, jt, i, c)
		}
		ns := nodeSums{ids: database.NewKeyMap(len(sepChild))}
		for _, t := range red[i].R.Tuples {
			val := s.One()
			for _, col := range charged[i] {
				val = s.Mul(val, w(t[col]))
			}
			for k, c := range kids {
				// Child c's sum keyed on the separator between i and c.
				var cs interface{}
				if id := sums[c].ids.Find(t, childCols[k]); id >= 0 {
					cs = sums[c].vals[id]
				} else {
					cs = s.Zero()
				}
				val = s.Mul(val, cs)
			}
			id := ns.ids.Intern(t, sepChild)
			if id == len(ns.vals) {
				ns.vals = append(ns.vals, val)
			} else {
				ns.vals[id] = s.Add(ns.vals[id], val)
			}
		}
		sums[i] = ns
	}
	root := jt.Root()
	total := s.Zero()
	// Sum in sorted key order: neither map iteration nor interning order may
	// leak into the result for semirings whose Add is not exactly
	// associative (floats), and deterministic totals are what the
	// differential suites compare. (At the root the separator is empty, so
	// there is normally a single key; the sort is belt and braces.)
	order := make([]int, sums[root].ids.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return sums[root].ids.Key(order[a]).Compare(sums[root].ids.Key(order[b])) < 0
	})
	for _, id := range order {
		total = s.Add(total, sums[root].vals[id])
	}
	return total, nil
}

// childSepParentCols returns the columns of parent-node tuples that form the
// separator with child c (aligned with the child's stored key columns).
func childSepParentCols(red []cq.Rel, jt *hypergraph.JoinTree, parent, c int) []int {
	var cols []int
	for _, v := range red[c].Schema {
		if pc := red[parent].Col(v); pc >= 0 {
			cols = append(cols, pc)
		}
	}
	return cols
}

func postorderOf(jt *hypergraph.JoinTree) []int {
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

func schemasOf(rels []cq.Rel) string {
	parts := make([]string, len(rels))
	for i, r := range rels {
		parts[i] = "{" + strings.Join(r.Schema, ",") + "}"
	}
	return strings.Join(parts, " ")
}

// CountQuantifierFree computes the weighted count of a projection-free
// acyclic conjunctive query (♯FACQ⁰, Theorem 4.21): q.Head must list all of
// q's variables. c (nil for none) receives phase spans as in CountFullJoin.
func CountQuantifierFree(db *database.Database, q *logic.CQ, w Weight, s Semiring, c *delay.Counter) (interface{}, error) {
	if len(q.Head) != len(q.Vars()) {
		return nil, fmt.Errorf("counting: query %s has projections; use Count", q.Name)
	}
	rels, err := atomRels(db, q)
	if err != nil {
		return nil, err
	}
	return CountFullJoin(rels, q.Head, w, s, c)
}

func atomRels(db *database.Database, q *logic.CQ) ([]cq.Rel, error) {
	if len(q.NegAtoms) > 0 || len(q.Comparisons) > 0 {
		return nil, fmt.Errorf("counting: query %s has negation or comparisons", q.Name)
	}
	var rels []cq.Rel
	for _, a := range q.Atoms {
		r, err := cq.AtomRelation(db, a)
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
	}
	return rels, nil
}

// Count computes |φ(D)| for an acyclic conjunctive query by the
// quantified-star-size algorithm of Theorem 4.28:
//
//  1. decompose the query hypergraph into S-components, S = free(φ)
//     (Definition 4.23);
//  2. evaluate each component subquery φᵢ, materializing a relation Rᵢ over
//     the component's free variables — the only step whose cost grows as
//     ‖D‖^k where k is the quantified star size (Definition 4.26);
//  3. the remaining query — the Rᵢ plus the atoms over free variables only —
//     is a projection-free acyclic query; count it with the weighted DP of
//     Theorem 4.21.
//
// The weight of an answer is the product of its components' weights, so
// Count generalizes to ♯FACQ.
//
// c (nil for none) receives phase spans through its sink: one "join" span
// covering the S-component materialization (step 2, the only step whose
// cost grows with the quantified star size), then the spans of the final
// CountFullJoin. c is never ticked (see CountFullJoin).
func Count(db *database.Database, q *logic.CQ, w Weight, s Semiring, c *delay.Counter) (interface{}, error) {
	if len(q.NegAtoms) > 0 || len(q.Comparisons) > 0 {
		return nil, fmt.Errorf("counting: query %s has negation or comparisons", q.Name)
	}
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("counting: query %s has no atoms", q.Name)
	}
	if !q.IsAcyclic() {
		return nil, fmt.Errorf("counting: query %s is not acyclic", q.Name)
	}
	inAtom := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			inAtom[v] = true
		}
	}
	for _, v := range q.Head {
		if !inAtom[v] {
			return nil, fmt.Errorf("counting: unsafe query %s: head variable %q occurs in no atom", q.Name, v)
		}
	}
	if q.IsBoolean() {
		ok, err := cq.Decide(db, q, nil)
		if err != nil {
			return nil, err
		}
		if ok {
			return s.One(), nil
		}
		return s.Zero(), nil
	}

	h := q.Hypergraph()
	sset := make(map[string]bool, len(q.Head))
	for _, v := range q.Head {
		sset[v] = true
	}
	comps := hypergraph.SComponents(h, sset)

	var parts []cq.Rel
	// Step 2: one materialized relation per S-component.
	jspan := c.StartSpan("join")
	for ci, comp := range comps {
		var atoms []logic.Atom
		freeVars := make(map[string]bool)
		for _, ei := range comp.EdgeIdx {
			// Edge names are "Pred#atomIndex"; recover the atom.
			idx := atomIndexOf(h.Edges[ei].Name)
			atoms = append(atoms, q.Atoms[idx])
			for _, v := range q.Atoms[idx].Vars() {
				if sset[v] {
					freeVars[v] = true
				}
			}
		}
		head := make([]string, 0, len(freeVars))
		for v := range freeVars {
			head = append(head, v)
		}
		sort.Strings(head)
		sub := &logic.CQ{Name: fmt.Sprintf("%s_c%d", q.Name, ci), Head: head, Atoms: atoms}
		tuples, err := cq.Eval(db, sub, nil)
		if err != nil {
			jspan.End()
			return nil, fmt.Errorf("counting: component %d: %w", ci, err)
		}
		rel := database.FromTuples(sub.Name, len(head), tuples)
		parts = append(parts, cq.Rel{Schema: head, R: rel})
	}
	// Step 3: atoms entirely over free variables join in unchanged.
	for i, a := range q.Atoms {
		inside := true
		for _, v := range a.Vars() {
			if !sset[v] {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		r, err := cq.AtomRelation(db, a)
		if err != nil {
			jspan.End()
			return nil, err
		}
		_ = i
		parts = append(parts, r)
	}
	jspan.End()
	return CountFullJoin(parts, q.Head, w, s, c)
}

// atomIndexOf parses the atom index out of a hypergraph edge name
// "Pred#idx" produced by logic.CQ.Hypergraph.
func atomIndexOf(name string) int {
	i := strings.LastIndexByte(name, '#')
	idx := 0
	fmt.Sscanf(name[i+1:], "%d", &idx)
	return idx
}
