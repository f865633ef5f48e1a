package ineq

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// residual is a disequality a ≠ b that cannot be compiled into a single
// relation and must be resolved during enumeration.
type residual struct{ a, b string }

// part is one child of the head node after preprocessing: a relation over
// free variables plus witness rows for the deferred quantified variables of
// its subtree.
type part struct {
	free      cq.Rel
	witness   map[string][]database.Tuple // free-projection key -> witness rows; nil without a deferred residual
	deferCols map[string]int              // deferred variable -> column in witness rows
}

// EnumerateNeq enumerates φ(D) for a free-connex acyclic conjunctive query
// with disequalities (ACQ≠, Theorem 4.20). Following Section 4.3, each
// existentially quantified variable z under disequality constraints is
// eliminated by keeping a small representative set of witnesses:
//
//   - disequalities whose variables share an atom are compiled away by
//     filtering that relation (linear time), as are comparisons to
//     constants;
//   - when z is projected out at its topmost join-tree node, the rows of
//     each group (all other columns fixed) are reduced to deg(z)+1 rows
//     with pairwise distinct z-values — the one-column representative set
//     of Definition 4.19: at most deg(z) values are ever forbidden for z,
//     so a retained witness survives iff some original row did. The
//     retained z column rides upward as a witness column;
//   - at emission time the deferred disequalities are checked against the
//     witness rows of the relevant parts, in f(‖φ‖) time independent
//     of ‖D‖.
//
// Preprocessing is linear in ‖D‖ up to the query-dependent witness factor
// Π(deg+1); the delay is constant up to outputs suppressed by the final
// check (see the scope note in DESIGN.md).
func EnumerateNeq(db *database.Database, q *logic.CQ, c *delay.Counter) (delay.Enumerator, error) {
	p, err := PrepareNeq(db, q, c)
	if err != nil {
		return nil, err
	}
	return p.Enumerate(c), nil
}

// NeqPrep is the reusable preprocessing of the ACQ≠ enumerator: the
// full-reduced free parts with their witness maps, the odometer core over
// the free relations, and the classified residual disequalities. One prep
// serves any number of enumeration passes via Enumerate.
type NeqPrep struct {
	empty    bool // a contradictory comparison makes the query unsatisfiable
	core     *cq.OdometerCore
	parts    []part
	freeFree []residual // disequalities between two free variables
	deferred []residual // disequalities involving a quantified variable
	freeSet  map[string]bool
	headPos  map[string]int
	varPart  map[string]int
}

// Rebuild re-runs the Theorem 4.20 preprocessing against db and replaces
// the prep's state in place, so existing holders of the pointer see the
// fresh spine. Incremental maintenance of the witness maps under deltas
// is future work; a rebuild is always correct, and plan.Prepared.Refresh
// uses it to survive mutations without handing out a new prep. On error
// the prep is left untouched.
func (np *NeqPrep) Rebuild(db *database.Database, q *logic.CQ, c *delay.Counter) error {
	fresh, err := PrepareNeq(db, q, c)
	if err != nil {
		return err
	}
	*np = *fresh
	return nil
}

// PrepareNeq runs the witness-preserving preprocessing of Theorem 4.20 (see
// EnumerateNeq) and returns the reusable prep.
func PrepareNeq(db *database.Database, q *logic.CQ, c *delay.Counter) (*NeqPrep, error) {
	if len(q.NegAtoms) > 0 {
		return nil, fmt.Errorf("ineq: query %s has negated atoms", q.Name)
	}
	for _, cmp := range q.Comparisons {
		if cmp.Op != logic.NEQ {
			return nil, fmt.Errorf("ineq: comparison %s is not a disequality; ACQ< is W[1]-hard (Theorem 4.15)", cmp)
		}
	}
	plain := &logic.CQ{Name: q.Name, Head: q.Head, Atoms: q.Atoms}
	bspan := c.StartSpan("tree-build")
	t, err := cq.BuildTree(db, plain, true)
	bspan.End()
	if err != nil {
		return nil, err
	}

	freeSet := make(map[string]bool, len(q.Head))
	for _, v := range q.Head {
		freeSet[v] = true
	}
	varAtoms := map[string]map[int]bool{}
	for i, a := range q.Atoms {
		for _, v := range a.Vars() {
			if varAtoms[v] == nil {
				varAtoms[v] = map[int]bool{}
			}
			varAtoms[v][i] = true
		}
	}

	// Classify the disequalities.
	type constFilter struct {
		v   string
		val database.Value
	}
	var constFilters []constFilter
	var residuals []residual
	sameAtom := map[int][][2]string{}
	for _, cmp := range q.Comparisons {
		l, r := cmp.L, cmp.R
		switch {
		case l.IsConst && r.IsConst:
			if l.Const == r.Const {
				return &NeqPrep{empty: true}, nil
			}
		case l.IsConst != r.IsConst:
			v, val := l.Var, r.Const
			if l.IsConst {
				v, val = r.Var, l.Const
			}
			if varAtoms[v] == nil {
				return nil, fmt.Errorf("ineq: comparison variable %q occurs in no atom", v)
			}
			constFilters = append(constFilters, constFilter{v: v, val: val})
		default:
			if l.Var == r.Var {
				return &NeqPrep{empty: true}, nil
			}
			if varAtoms[l.Var] == nil || varAtoms[r.Var] == nil {
				return nil, fmt.Errorf("ineq: comparison variable occurs in no atom: %s", cmp)
			}
			shared := false
			for ai := range varAtoms[l.Var] {
				if varAtoms[r.Var][ai] {
					sameAtom[ai] = append(sameAtom[ai], [2]string{l.Var, r.Var})
					shared = true
				}
			}
			if !shared {
				residuals = append(residuals, residual{a: l.Var, b: r.Var})
			}
		}
	}

	// Linear-time filters on the atom relations.
	rspan := c.StartSpan("semijoin-reduce")
	for i := range q.Atoms {
		r := t.Rels[i]
		var checks []func(database.Tuple) bool
		for _, cf := range constFilters {
			if col := r.Col(cf.v); col >= 0 {
				col, val := col, cf.val
				checks = append(checks, func(tp database.Tuple) bool { return tp[col] != val })
			}
		}
		for _, pair := range sameAtom[i] {
			if ca, cb := r.Col(pair[0]), r.Col(pair[1]); ca >= 0 && cb >= 0 {
				ca, cb := ca, cb
				checks = append(checks, func(tp database.Tuple) bool { return tp[ca] != tp[cb] })
			}
		}
		if len(checks) == 0 {
			continue
		}
		t.Rels[i] = cq.Rel{Schema: r.Schema, R: r.R.Select(r.R.Name, func(tp database.Tuple) bool {
			for _, ch := range checks {
				if !ch(tp) {
					return false
				}
			}
			return true
		})}
		c.Tick(int64(r.R.Len()))
	}

	// Deferred variables: quantified variables under residual constraints.
	deg := map[string]int{}
	for _, rc := range residuals {
		if !freeSet[rc.a] {
			deg[rc.a]++
		}
		if !freeSet[rc.b] {
			deg[rc.b]++
		}
	}

	// Bottom-up pass with witness-preserving elimination.
	children := t.JT.Children()
	post := postorderOf(t.JT.Parent, t.JT.Root())
	rels := make([]cq.Rel, len(t.Rels))
	for _, i := range post {
		if i == t.HeadIdx {
			continue
		}
		r := t.Rels[i]
		for _, ch := range children[i] {
			r = cq.JoinRel(r.R.Name, r, rels[ch])
			c.Tick(int64(r.R.Len()) + 1)
		}
		node := t.JT.Nodes[i]
		p := t.JT.Parent[i]
		keep := map[string]bool{}
		var dropDeferred []string
		dropPlain := map[string]bool{}
		for _, v := range r.Schema {
			switch {
			case !node.Has(v): // witness column from below: always kept
				keep[v] = true
			case freeSet[v] || (p >= 0 && t.JT.Nodes[p].Has(v)):
				keep[v] = true
			case deg[v] > 0:
				dropDeferred = append(dropDeferred, v)
			default:
				dropPlain[v] = true
			}
		}
		if len(dropPlain) > 0 {
			var vars []string
			for _, v := range r.Schema {
				if !dropPlain[v] {
					vars = append(vars, v)
				}
			}
			r = cq.ProjectRel(r, vars)
			r.R.Dedup()
			c.Tick(int64(r.R.Len()) + 1)
		}
		sort.Strings(dropDeferred)
		for _, z := range dropDeferred {
			r = eliminateWitness(r, z, deg[z], c)
		}
		rels[i] = r
	}

	// Root children: split free columns from witness columns. Only a
	// deferred residual reads the witness maps (witnessCheck), so without
	// one they are not built; the per-row step is counted either way.
	hasDeferred := false
	for _, rc := range residuals {
		if !freeSet[rc.a] || !freeSet[rc.b] {
			hasDeferred = true
		}
	}
	var parts []part
	var freeRels []cq.Rel
	for _, ch := range children[t.HeadIdx] {
		r := rels[ch]
		var freeCols []int
		var freeVars []string
		pt := part{deferCols: map[string]int{}}
		for col, v := range r.Schema {
			if freeSet[v] {
				freeCols = append(freeCols, col)
				freeVars = append(freeVars, v)
			} else {
				pt.deferCols[v] = col
			}
		}
		if hasDeferred {
			pt.witness = map[string][]database.Tuple{}
			for _, row := range r.R.Tuples {
				k := row.Key(freeCols)
				pt.witness[k] = append(pt.witness[k], row)
			}
		}
		c.Tick(int64(r.R.Len()))
		// With every column free the split keeps r whole: Dedup alone,
		// after the witness maps and the tick have read r's rows.
		fr := cq.Rel{Schema: freeVars, R: r.R}
		if len(freeCols) < len(r.Schema) {
			fr.R = r.R.Project(r.R.Name, freeCols)
		}
		fr.R.Dedup()
		pt.free = fr
		parts = append(parts, pt)
		freeRels = append(freeRels, fr)
	}
	rspan.End()

	core, err := cq.NewOdometerCore(q.Head, freeRels, c)
	if err != nil {
		return nil, err
	}

	headPos := map[string]int{}
	for i, v := range q.Head {
		headPos[v] = i
	}
	varPart := map[string]int{}
	for pi, pt := range parts {
		for v := range pt.deferCols {
			varPart[v] = pi
		}
	}
	var freeFree, deferred []residual
	for _, rc := range residuals {
		if freeSet[rc.a] && freeSet[rc.b] {
			freeFree = append(freeFree, rc)
		} else {
			deferred = append(deferred, rc)
			for _, v := range []string{rc.a, rc.b} {
				if !freeSet[v] {
					if _, ok := varPart[v]; !ok {
						return nil, fmt.Errorf("ineq: internal: deferred variable %q lost", v)
					}
				}
			}
		}
	}

	return &NeqPrep{
		core:     core,
		parts:    parts,
		freeFree: freeFree,
		deferred: deferred,
		freeSet:  freeSet,
		headPos:  headPos,
		varPart:  varPart,
	}, nil
}

// Core returns the odometer core over the prepared free parts, nil when a
// contradictory comparison left nothing to enumerate.
func (p *NeqPrep) Core() *cq.OdometerCore { return p.core }

// Enumerate starts a fresh enumeration pass: a new odometer cursor over the
// prepared free parts, with the residual disequality checks attached to
// each output.
func (p *NeqPrep) Enumerate(c *delay.Counter) *NeqCursor {
	return p.EnumerateFrom(context.Background(), c, nil, 0)
}

// EnumerateFrom starts a pass whose odometer begins at its pos-th output:
// the first answer is the first one the checks pass from there on. The
// odometer is placed by one Seek over the counting pass w of Core. With a
// nil w (the count overflows a uint64) it steps over pos outputs, polling
// ctx before each; once ctx ends it stops short, and the caller, who
// passed ctx, reads no answer of the pass.
func (p *NeqPrep) EnumerateFrom(ctx context.Context, c *delay.Counter, w *cq.SpineWeights, pos uint64) *NeqCursor {
	cur := &NeqCursor{p: p, c: c, pos: pos}
	if p.empty {
		return cur
	}
	cur.od = p.core.Cursor(c)
	if w != nil {
		cur.od.Seek(w, pos)
		return cur
	}
	done := ctx.Done()
	for i := uint64(0); i < pos; i++ {
		select {
		case <-done:
			return cur
		default:
		}
		if _, ok := cur.od.Next(); !ok {
			break
		}
	}
	return cur
}

// NeqCursor is one enumeration pass of a NeqPrep. It counts the odometer
// outputs it has read, checked or not, so Pos is the odometer position a
// later pass resumes from with EnumerateFrom.
type NeqCursor struct {
	p   *NeqPrep
	od  *cq.Odometer // nil: the prep is empty
	c   *delay.Counter
	pos uint64
}

// Pos returns the number of odometer outputs read: after an answer, the
// position of the odometer output that follows it.
func (cur *NeqCursor) Pos() uint64 { return cur.pos }

// Next returns the next odometer output that passes the residual checks.
func (cur *NeqCursor) Next() (database.Tuple, bool) {
	if cur.od == nil {
		return nil, false
	}
	p, c := cur.p, cur.c
	for {
		out, ok := cur.od.Next()
		if !ok {
			return nil, false
		}
		cur.pos++
		c.Tick(1)
		pass := true
		for _, rc := range p.freeFree {
			if out[p.headPos[rc.a]] == out[p.headPos[rc.b]] {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		if len(p.deferred) > 0 && !witnessCheck(p.parts, cur.od, p.deferred, p.freeSet, p.headPos, p.varPart, out, c) {
			continue
		}
		return out, true
	}
}

// eliminateWitness turns column z of r into a witness column: rows are
// grouped on all other columns and each group keeps at most deg+1 rows with
// pairwise distinct z-values.
func eliminateWitness(r cq.Rel, z string, deg int, c *delay.Counter) cq.Rel {
	zc := r.Col(z)
	var otherCols []int
	for col := range r.Schema {
		if col != zc {
			otherCols = append(otherCols, col)
		}
	}
	kept := map[string]map[database.Value]bool{}
	out := database.NewRelation(r.R.Name, r.R.Arity)
	for _, row := range r.R.Tuples {
		k := row.Key(otherCols)
		vals := kept[k]
		if vals == nil {
			vals = map[database.Value]bool{}
			kept[k] = vals
		}
		c.Tick(1)
		if len(vals) > deg || vals[row[zc]] {
			continue
		}
		vals[row[zc]] = true
		out.Insert(row)
	}
	out.Dedup()
	return cq.Rel{Schema: r.Schema, R: out}
}

// witnessCheck decides whether one witness row per involved part can be
// chosen so that all deferred disequalities hold.
func witnessCheck(parts []part, od *cq.Odometer, deferred []residual, freeSet map[string]bool,
	headPos map[string]int, varPart map[string]int, out database.Tuple, c *delay.Counter) bool {
	involved := map[int]bool{}
	for _, rc := range deferred {
		if !freeSet[rc.a] {
			involved[varPart[rc.a]] = true
		}
		if !freeSet[rc.b] {
			involved[varPart[rc.b]] = true
		}
	}
	var order []int
	for pi := range involved {
		order = append(order, pi)
	}
	sort.Ints(order)
	rows := make(map[int][]database.Tuple, len(order))
	for _, pi := range order {
		rows[pi] = parts[pi].witness[od.PartTuple(pi).FullKey()]
		c.Tick(1)
		if len(rows[pi]) == 0 {
			return false
		}
	}
	choice := map[int]database.Tuple{}
	value := func(v string) database.Value {
		if freeSet[v] {
			return out[headPos[v]]
		}
		pi := varPart[v]
		return choice[pi][parts[pi].deferCols[v]]
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			for _, rc := range deferred {
				c.Tick(1)
				if value(rc.a) == value(rc.b) {
					return false
				}
			}
			return true
		}
		pi := order[k]
		for _, row := range rows[pi] {
			choice[pi] = row
			if rec(k + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func postorderOf(parent []int, root int) []int {
	ch := make([][]int, len(parent))
	for i, p := range parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	var out []int
	var rec func(i int)
	rec = func(i int) {
		for _, c := range ch[i] {
			rec(c)
		}
		out = append(out, i)
	}
	rec(root)
	return out
}
