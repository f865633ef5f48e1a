// Package oracle is a deliberately naive, obviously-correct reference
// engine for conjunctive queries and unions of conjunctive queries. It
// evaluates a query by enumerating assignments of the query's variables to
// the active domain and checking every atom by a linear scan over the
// relation's tuple list — no join trees, no hash indexes, no shared code
// with the optimized engines, O(‖dom‖^vars) and proud of it.
//
// Its purpose is differential testing: every answer-producing engine in the
// repository (Yannakakis, constant- and linear-delay enumeration, random
// access, the counting DP, UCQ inclusion–exclusion) is compared against
// this oracle on randomized instances (see internal/qgen). The
// implementation is kept independent of internal/logic's own EvalNaive so
// that a bug in one naive evaluator cannot hide the same bug in the other.
//
// The only concession to tractability is constraint-driven pruning: a
// constraint (atom, negated atom, comparison) is checked as soon as all of
// its variables are assigned, cutting branches that provably cannot satisfy
// the query. Pruning never removes a satisfying assignment, so the answer
// set is exactly the Chandra–Merlin semantics of Section 2.1 of the paper.
package oracle

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/database"
	"repro/internal/logic"
)

// DefaultBudget bounds the number of search-tree nodes a single evaluation
// may explore before giving up with an error. The oracle is meant for small
// randomized instances; the budget turns an accidental blow-up into a clean
// test failure instead of a hung suite.
const DefaultBudget = 1 << 27

// evaluator holds the per-query state of one brute-force run.
type evaluator struct {
	db     *database.Database
	vars   []string
	varIdx map[string]int
	val    []database.Value // val[i] = current value of vars[i]
	dom    []database.Value

	// Constraints become checkable at the depth where their last variable
	// is assigned; readyAtoms[d] lists the positive atoms checkable once
	// vars[0..d-1] are set (d = 0 means constant-only constraints).
	readyAtoms [][]logic.Atom
	readyNegs  [][]logic.Atom
	readyComps [][]logic.Comparison

	budget int64
}

func newEvaluator(db *database.Database, q *logic.CQ, budget int64) *evaluator {
	e := &evaluator{
		db:     db,
		vars:   q.Vars(),
		dom:    db.Domain(),
		budget: budget,
	}
	e.varIdx = make(map[string]int, len(e.vars))
	for i, v := range e.vars {
		e.varIdx[v] = i
	}
	e.val = make([]database.Value, len(e.vars))
	n := len(e.vars) + 1
	e.readyAtoms = make([][]logic.Atom, n)
	e.readyNegs = make([][]logic.Atom, n)
	e.readyComps = make([][]logic.Comparison, n)
	for _, a := range q.Atoms {
		d := e.atomDepth(a)
		e.readyAtoms[d] = append(e.readyAtoms[d], a)
	}
	for _, a := range q.NegAtoms {
		d := e.atomDepth(a)
		e.readyNegs[d] = append(e.readyNegs[d], a)
	}
	for _, c := range q.Comparisons {
		d := 0
		if !c.L.IsConst {
			d = max(d, e.varIdx[c.L.Var]+1)
		}
		if !c.R.IsConst {
			d = max(d, e.varIdx[c.R.Var]+1)
		}
		e.readyComps[d] = append(e.readyComps[d], c)
	}
	return e
}

// atomDepth returns the depth at which every variable of a is assigned.
func (e *evaluator) atomDepth(a logic.Atom) int {
	d := 0
	for _, t := range a.Args {
		if !t.IsConst {
			d = max(d, e.varIdx[t.Var]+1)
		}
	}
	return d
}

func (e *evaluator) termValue(t logic.Term) database.Value {
	if t.IsConst {
		return t.Const
	}
	return e.val[e.varIdx[t.Var]]
}

// atomHolds checks R(t̄) under the current assignment by scanning the
// relation's tuples front to back — deliberately no index.
func (e *evaluator) atomHolds(a logic.Atom) bool {
	r := e.db.Relation(a.Pred)
	if r == nil {
		return false
	}
	if r.Arity != len(a.Args) {
		return false
	}
	want := make(database.Tuple, len(a.Args))
	for i, t := range a.Args {
		want[i] = e.termValue(t)
	}
scan:
	for _, row := range r.Tuples {
		for i := range want {
			if row[i] != want[i] {
				continue scan
			}
		}
		return true
	}
	return false
}

// check verifies every constraint that became fully assigned at depth d.
func (e *evaluator) check(d int) bool {
	for _, a := range e.readyAtoms[d] {
		if !e.atomHolds(a) {
			return false
		}
	}
	for _, a := range e.readyNegs[d] {
		if e.atomHolds(a) {
			return false
		}
	}
	for _, c := range e.readyComps[d] {
		if !c.Op.Eval(e.termValue(c.L), e.termValue(c.R)) {
			return false
		}
	}
	return true
}

// run explores the assignment tree, calling leaf for every total assignment
// satisfying the query. leaf returning false stops the search early.
func (e *evaluator) run(leaf func() bool) error {
	var rec func(d int) (bool, error)
	rec = func(d int) (bool, error) {
		e.budget--
		if e.budget < 0 {
			return false, fmt.Errorf("oracle: search budget exhausted (domain %d, %d variables)", len(e.dom), len(e.vars))
		}
		if !e.check(d) {
			return true, nil
		}
		if d == len(e.vars) {
			return leaf(), nil
		}
		for _, v := range e.dom {
			e.val[d] = v
			cont, err := rec(d + 1)
			if !cont || err != nil {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}

// Eval computes φ(D) by exhaustive search: the sorted, duplicate-free list
// of head tuples of satisfying assignments. A true Boolean query yields the
// single empty tuple.
func Eval(db *database.Database, q *logic.CQ) ([]database.Tuple, error) {
	return EvalBudget(db, q, DefaultBudget)
}

// EvalBudget is Eval with an explicit search budget.
func EvalBudget(db *database.Database, q *logic.CQ, budget int64) ([]database.Tuple, error) {
	e := newEvaluator(db, q, budget)
	headIdx := make([]int, len(q.Head))
	for i, v := range q.Head {
		headIdx[i] = e.varIdx[v]
	}
	var out []database.Tuple
	err := e.run(func() bool {
		t := make(database.Tuple, len(headIdx))
		for i, j := range headIdx {
			t[i] = e.val[j]
		}
		out = append(out, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	return sortedSet(out), nil
}

// sortedSet sorts ts and drops the repeats.
func sortedSet(ts []database.Tuple) []database.Tuple {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return slices.CompactFunc(ts, database.Tuple.Equal)
}

// Count returns |φ(D)| by exhaustive search.
func Count(db *database.Database, q *logic.CQ) (int, error) {
	out, err := Eval(db, q)
	if err != nil {
		return 0, err
	}
	return len(out), nil
}

// Decide reports whether some assignment satisfies the query's body,
// ignoring the head (the Boolean query problem). It stops at the first
// witness.
func Decide(db *database.Database, q *logic.CQ) (bool, error) {
	e := newEvaluator(db, q, DefaultBudget)
	found := false
	err := e.run(func() bool {
		found = true
		return false
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// EvalUCQ computes the duplicate-free union φ1(D) ∪ ... ∪ φk(D), sorted.
func EvalUCQ(db *database.Database, u *logic.UCQ) ([]database.Tuple, error) {
	var out []database.Tuple
	for _, d := range u.Disjuncts {
		res, err := Eval(db, d)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	out = sortedSet(out)
	return out, nil
}

// CountUCQ returns |φ1(D) ∪ ... ∪ φk(D)|.
func CountUCQ(db *database.Database, u *logic.UCQ) (int, error) {
	out, err := EvalUCQ(db, u)
	if err != nil {
		return 0, err
	}
	return len(out), nil
}
