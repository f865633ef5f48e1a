package ineq

import (
	"fmt"
	"sort"

	"repro/internal/database"
	"repro/internal/logic"
)

// EvalBacktrack evaluates an arbitrary conjunctive query with comparisons
// and negated atoms (a "signed" query, Section 4.5) by a backtracking
// join: positive atoms are processed in a connectivity-friendly order with
// candidate tuples fetched through hash indexes on the columns already
// bound; comparisons are checked as soon as both sides are bound;
// variables occurring only in negated atoms or comparisons range over the
// active domain; negated atoms are checked once their variables are bound.
// This is the generic (exponential in ‖φ‖, Chandra–Merlin) baseline used
// for the ACQ< experiments of Theorem 4.15 — the fragment for which no FPT
// algorithm is expected.
func EvalBacktrack(db *database.Database, q *logic.CQ) ([]database.Tuple, error) {
	return runBacktrack(db, q, false)
}

// DecideBacktrack reports whether the Boolean query holds, stopping at the
// first satisfying assignment.
func DecideBacktrack(db *database.Database, q *logic.CQ) (bool, error) {
	res, err := runBacktrack(db, q, true)
	if err != nil {
		return false, err
	}
	return len(res) > 0, nil
}

func runBacktrack(db *database.Database, q *logic.CQ, stopAtFirst bool) ([]database.Tuple, error) {
	for _, a := range q.Atoms {
		r := db.Relation(a.Pred)
		if r == nil {
			return nil, fmt.Errorf("ineq: unknown relation %q", a.Pred)
		}
		if r.Arity != len(a.Args) {
			return nil, fmt.Errorf("ineq: relation %q arity mismatch", a.Pred)
		}
	}
	// Order atoms greedily by connectivity: start with the first atom, then
	// repeatedly pick the atom sharing most variables with those placed.
	n := len(q.Atoms)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := map[string]bool{}
	for len(order) < n {
		best, bestShared := -1, -1
		for i, a := range q.Atoms {
			if used[i] {
				continue
			}
			shared := 0
			for _, v := range a.Vars() {
				if bound[v] {
					shared++
				}
			}
			if shared > bestShared {
				best, bestShared = i, shared
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range q.Atoms[best].Vars() {
			bound[v] = true
		}
	}
	// Comparisons checked at the earliest atom position where both sides
	// are bound; variable-free comparisons checked up front.
	type check struct {
		pos int
		cmp logic.Comparison
	}
	depth := map[string]int{}
	cur := map[string]bool{}
	for pos, ai := range order {
		for _, v := range q.Atoms[ai].Vars() {
			if !cur[v] {
				cur[v] = true
				depth[v] = pos
			}
		}
	}
	// Variables not covered by any positive atom (they occur only in
	// negated atoms, comparisons, or the head) range over the active
	// domain in a final phase.
	var extraVars []string
	extraSeen := map[string]bool{}
	needVar := func(v string) {
		if _, ok := depth[v]; !ok && !extraSeen[v] {
			extraSeen[v] = true
			extraVars = append(extraVars, v)
		}
	}
	for _, a := range q.NegAtoms {
		r := db.Relation(a.Pred)
		if r != nil && r.Arity != len(a.Args) {
			return nil, fmt.Errorf("ineq: relation %q arity mismatch", a.Pred)
		}
		for _, v := range a.Vars() {
			needVar(v)
		}
	}
	var checks []check            // comparisons over positive-atom variables
	var finals []logic.Comparison // comparisons involving extra variables
	for _, cmp := range q.Comparisons {
		pos := 0
		deferred := false
		for _, t := range []logic.Term{cmp.L, cmp.R} {
			if t.IsConst {
				continue
			}
			if d, ok := depth[t.Var]; ok {
				if d > pos {
					pos = d
				}
			} else {
				needVar(t.Var)
				deferred = true
			}
		}
		if deferred {
			finals = append(finals, cmp)
		} else {
			checks = append(checks, check{pos: pos, cmp: cmp})
		}
	}
	for _, v := range q.Head {
		needVar(v)
	}
	// Only the extra variables range over the active domain; a query whose
	// variables all occur in positive atoms reads no relation but its own.
	var dom []database.Value
	if len(extraVars) > 0 {
		dom = db.Domain()
	}

	asg := logic.Assignment{}
	seen := database.NewKeyMap(len(q.Head))
	var out []database.Tuple

	negHolds := func(a logic.Atom) bool {
		r := db.Relation(a.Pred)
		if r == nil {
			return false
		}
		t := make(database.Tuple, len(a.Args))
		for i, arg := range a.Args {
			t[i] = termVal(arg, asg)
		}
		return r.Contains(t)
	}
	emit := func() bool {
		for _, cmp := range finals {
			if !cmp.Op.Eval(termVal(cmp.L, asg), termVal(cmp.R, asg)) {
				return false
			}
		}
		for _, a := range q.NegAtoms {
			if negHolds(a) {
				return false
			}
		}
		tuple := make(database.Tuple, len(q.Head))
		for i, v := range q.Head {
			tuple[i] = asg[v]
		}
		if n := seen.Len(); seen.Intern(tuple, nil) == n {
			out = append(out, tuple)
		}
		return stopAtFirst
	}
	var extraPhase func(i int) bool
	extraPhase = func(i int) bool {
		if i == len(extraVars) {
			return emit()
		}
		for _, v := range dom {
			asg[extraVars[i]] = v
			if extraPhase(i + 1) {
				delete(asg, extraVars[i])
				return true
			}
		}
		delete(asg, extraVars[i])
		return false
	}

	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == n {
			return extraPhase(0)
		}
		a := q.Atoms[order[pos]]
		rel := db.Relation(a.Pred)
		// Columns already determined by the partial assignment or by
		// constants / repeated variables within the atom.
		probe := make(database.Tuple, 0, len(a.Args))
		var probeCols []int
		firstCol := map[string]int{}
		for col, t := range a.Args {
			switch {
			case t.IsConst:
				probe = append(probe, t.Const)
				probeCols = append(probeCols, col)
			default:
				if v, ok := asg[t.Var]; ok {
					probe = append(probe, v)
					probeCols = append(probeCols, col)
				} else if fc, ok := firstCol[t.Var]; ok {
					_ = fc // handled after fetch (repeated free variable)
				} else {
					firstCol[t.Var] = col
				}
			}
		}
		ix := rel.IndexOn(probeCols)
		pc := make([]int, len(probeCols))
		for i := range pc {
			pc[i] = i
		}
		for _, id := range ix.Lookup(probe, pc) {
			tup := ix.Row(id)
			ok := true
			// Repeated new variables must agree across their occurrences.
			for col, t := range a.Args {
				if t.IsConst {
					continue
				}
				if fc, exists := firstCol[t.Var]; exists && fc != col && tup[fc] != tup[col] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var added []string
			for v, col := range firstCol {
				asg[v] = tup[col]
				added = append(added, v)
			}
			ok = true
			for _, ch := range checks {
				if ch.pos != pos {
					continue
				}
				l, r := termVal(ch.cmp.L, asg), termVal(ch.cmp.R, asg)
				if !ch.cmp.Op.Eval(l, r) {
					ok = false
					break
				}
			}
			if ok && rec(pos+1) {
				for _, v := range added {
					delete(asg, v)
				}
				return true
			}
			for _, v := range added {
				delete(asg, v)
			}
		}
		return false
	}
	// Variable-free comparisons (pos 0 with no vars) are covered by the
	// pos-based checks; a query with no atoms at all is rejected.
	if n == 0 && len(q.NegAtoms) == 0 {
		return nil, fmt.Errorf("ineq: query %s has no atoms", q.Name)
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
}

func termVal(t logic.Term, asg logic.Assignment) database.Value {
	if t.IsConst {
		return t.Const
	}
	return asg[t.Var]
}
