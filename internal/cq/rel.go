// Package cq implements the evaluation algorithms for acyclic conjunctive
// queries of Section 4.1: the Yannakakis algorithm (Theorem 4.2), the
// linear-delay enumeration of Theorem 4.3 (Algorithm 2), and the
// constant-delay enumeration for free-connex queries of Theorem 4.6, plus
// the reduction database construction of the Theorem 4.8 lower bound
// (Example 4.7).
package cq

import (
	"fmt"
	"sort"

	"repro/internal/database"
	"repro/internal/logic"
)

// Rel is a relation tagged with a variable schema: column i holds the value
// of variable Schema[i].
type Rel struct {
	Schema []string
	R      *database.Relation
}

// Col returns the column of variable v, or -1.
func (r Rel) Col(v string) int {
	for i, s := range r.Schema {
		if s == v {
			return i
		}
	}
	return -1
}

// col is the internal alias of Col.
func (r Rel) col(v string) int { return r.Col(v) }

// commonCols returns the aligned column lists of the variables shared by a
// and b, in a's schema order.
func commonCols(a, b Rel) (ac, bc []int) {
	for i, v := range a.Schema {
		if j := b.col(v); j >= 0 {
			ac = append(ac, i)
			bc = append(bc, j)
		}
	}
	return ac, bc
}

// SemijoinRel keeps the tuples of a that match some tuple of b on their
// shared variables.
func SemijoinRel(a, b Rel) Rel { return semijoin(a, b) }

// ProjectRel projects a onto the given variables.
func ProjectRel(a Rel, vars []string) Rel { return project(a, vars) }

// JoinRel computes the natural join of a and b on their shared variables.
func JoinRel(name string, a, b Rel) Rel { return join(name, a, b) }

// semijoin keeps the tuples of a that match some tuple of b on their shared
// variables.
func semijoin(a, b Rel) Rel {
	ac, bc := commonCols(a, b)
	if len(ac) == 0 {
		// No shared variables: a survives iff b is nonempty.
		if b.R.Len() == 0 {
			return Rel{Schema: a.Schema, R: database.NewRelation(a.R.Name, a.R.Arity)}
		}
		return a
	}
	return Rel{Schema: a.Schema, R: database.Semijoin(a.R, ac, b.R, bc)}
}

// project projects a onto the given variables (which must be in a's schema).
func project(a Rel, vars []string) Rel {
	cols := make([]int, len(vars))
	for i, v := range vars {
		c := a.col(v)
		if c < 0 {
			panic(fmt.Sprintf("cq: projection variable %q not in schema %v", v, a.Schema))
		}
		cols[i] = c
	}
	return Rel{Schema: append([]string(nil), vars...), R: a.R.Project(a.R.Name, cols)}
}

// join computes the natural join of a and b on their shared variables.
func join(name string, a, b Rel) Rel {
	ac, bc := commonCols(a, b)
	out := Rel{Schema: append([]string(nil), a.Schema...)}
	skip := make(map[int]bool)
	for _, c := range bc {
		skip[c] = true
	}
	for c, v := range b.Schema {
		if !skip[c] {
			out.Schema = append(out.Schema, v)
		}
	}
	out.R = database.Join(name, a.R, ac, b.R, bc)
	return out
}

// AtomRelation builds the relation of a single atom: tuples of the base
// relation satisfying the atom's constants and repeated variables, projected
// onto the distinct variables (first occurrence order). This uniformly
// handles self-joins — each atom occurrence gets its own relation — and
// constants in atoms.
func AtomRelation(db *database.Database, a logic.Atom) (Rel, error) {
	base := db.Relation(a.Pred)
	if base == nil {
		return Rel{}, fmt.Errorf("cq: unknown relation %q", a.Pred)
	}
	if base.Arity != len(a.Args) {
		return Rel{}, fmt.Errorf("cq: relation %q has arity %d, atom has %d arguments", a.Pred, base.Arity, len(a.Args))
	}
	vars := a.Vars()
	if len(vars) == len(a.Args) {
		// A plain atom (distinct variables, no constants) over sorted,
		// duplicate-free rows: the selection, projection and Dedup below
		// would reproduce those rows in the same order, so share them.
		if v, ok := base.SortedView(a.Pred); ok {
			return Rel{Schema: vars, R: v}, nil
		}
	}
	firstCol := make(map[string]int)
	for i, t := range a.Args {
		if !t.IsConst {
			if _, ok := firstCol[t.Var]; !ok {
				firstCol[t.Var] = i
			}
		}
	}
	sel := base.Select(a.Pred, func(t database.Tuple) bool {
		for i, arg := range a.Args {
			if arg.IsConst {
				if t[i] != arg.Const {
					return false
				}
			} else if t[i] != t[firstCol[arg.Var]] {
				return false
			}
		}
		return true
	})
	out := sel
	if len(vars) < len(a.Args) {
		cols := make([]int, len(vars))
		for i, v := range vars {
			cols[i] = firstCol[v]
		}
		out = sel.Project(a.Pred, cols)
	}
	// A plain atom projects onto every column in order: Dedup alone.
	out.Dedup()
	return Rel{Schema: vars, R: out}, nil
}

// checkPlainACQ verifies that q is a plain conjunctive query this package
// handles (no negation, no comparisons), that it is acyclic, and that it is
// safe (every head variable occurs in a positive atom).
func checkPlainACQ(q *logic.CQ) error {
	if len(q.NegAtoms) > 0 {
		return fmt.Errorf("cq: query %s has negated atoms; use the ncq package", q.Name)
	}
	if len(q.Comparisons) > 0 {
		return fmt.Errorf("cq: query %s has comparisons; use the ineq package", q.Name)
	}
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query %s has no atoms", q.Name)
	}
	inAtom := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			inAtom[v] = true
		}
	}
	for _, v := range q.Head {
		if !inAtom[v] {
			return fmt.Errorf("cq: unsafe query %s: head variable %q occurs in no atom", q.Name, v)
		}
	}
	if !q.IsAcyclic() {
		return fmt.Errorf("cq: query %s is not acyclic", q.Name)
	}
	return nil
}

// sortedVars returns a sorted copy (deterministic schemas for projections).
func sortedVars(vs map[string]bool) []string {
	out := make([]string, 0, len(vs))
	for v := range vs {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
