package ncq

import (
	"fmt"

	"repro/internal/database"
	"repro/internal/logic"
)

// FromQuery converts a negative conjunctive query (Definition 4.30: all
// atoms negated) over db into a negative constraint network: variables
// range over the active domain of db and each atom ¬R(z̄) forbids the
// matching tuples of R. Constants and repeated variables inside atoms are
// resolved during the conversion. Free variables are treated
// existentially, so deciding the CSP decides the Boolean query.
func FromQuery(db *database.Database, q *logic.CQ) (*CSP, error) {
	if len(q.Atoms) > 0 {
		return nil, fmt.Errorf("ncq: query %s has positive atoms; NCQ allows negated atoms only", q.Name)
	}
	if len(q.Comparisons) > 0 {
		return nil, fmt.Errorf("ncq: query %s has comparisons", q.Name)
	}
	if len(q.NegAtoms) == 0 {
		return nil, fmt.Errorf("ncq: query %s has no atoms", q.Name)
	}
	dom := db.Domain()
	if len(dom) == 0 {
		return nil, fmt.Errorf("ncq: empty active domain")
	}
	c := &CSP{Domain: dom, Vars: q.Vars()}
	for _, a := range q.NegAtoms {
		r := db.Relation(a.Pred)
		if r == nil {
			// ¬R over a missing relation is vacuously true: no tuples to
			// forbid.
			continue
		}
		if r.Arity != len(a.Args) {
			return nil, fmt.Errorf("ncq: relation %q arity mismatch", a.Pred)
		}
		vars := a.Vars()
		firstCol := map[string]int{}
		for i, t := range a.Args {
			if !t.IsConst {
				if _, ok := firstCol[t.Var]; !ok {
					firstCol[t.Var] = i
				}
			}
		}
		cols := make([]int, len(vars))
		for i, v := range vars {
			cols[i] = firstCol[v]
		}
		// seen holds the distinct forbidden tuples; forbidden lists them.
		seen := database.NewKeyMap(len(vars))
		var forbidden []database.Tuple
		for _, tup := range r.Tuples {
			ok := true
			for i, arg := range a.Args {
				if arg.IsConst {
					if tup[i] != arg.Const {
						ok = false
						break
					}
				} else if tup[i] != tup[firstCol[arg.Var]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if n := seen.Len(); seen.Intern(tup, cols) == n {
				forbidden = append(forbidden, seen.Key(n))
			}
		}
		if len(vars) == 0 {
			if len(forbidden) > 0 {
				// A fully-constant negated atom matched: unsatisfiable.
				return &CSP{Domain: dom, Vars: c.Vars, Constraints: []Constraint{{}}}, nil
			}
			continue
		}
		c.Constraints = append(c.Constraints, Constraint{Scope: vars, Forbidden: forbidden})
	}
	return c, nil
}

// Decide decides the Boolean NCQ over db. For β-acyclic queries it runs
// the quasi-linear nest-point elimination of Theorem 4.31; otherwise it
// reports an error (the caller may fall back to brute force).
func Decide(db *database.Database, q *logic.CQ) (bool, error) {
	c, err := FromQuery(db, q)
	if err != nil {
		return false, err
	}
	for _, ct := range c.Constraints {
		if len(ct.Scope) == 0 {
			return false, nil
		}
	}
	return c.SolveBetaAcyclic()
}

// DecideBrute decides the Boolean NCQ by exhaustive search — the reference
// implementation and the baseline for cyclic queries.
func DecideBrute(db *database.Database, q *logic.CQ) (bool, error) {
	c, err := FromQuery(db, q)
	if err != nil {
		return false, err
	}
	for _, ct := range c.Constraints {
		if len(ct.Scope) == 0 {
			return false, nil
		}
	}
	return c.SolveBrute(), nil
}
