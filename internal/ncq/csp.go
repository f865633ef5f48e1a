// Package ncq implements Section 4.5 of the paper: negative conjunctive
// queries and their connection to constraint satisfaction. A NCQ
// φ(x) ≡ ∃y ⋀ᵢ ¬Rᵢ(zᵢ) is the negative encoding of a CSP whose
// constraints forbid the tuples of the Rᵢ; under the simpler form of SAT,
// each clause is a negative atom whose relation holds the unique falsifying
// assignment.
//
// Theorem 4.31 ([17], Brault-Baron): assuming Triangle, an NCQ is decidable
// in quasi-linear time iff it is β-acyclic. The algorithm combines
// Davis–Putnam elimination with the nest-point elimination ordering of
// β-acyclic hypergraphs ([38]); this package implements it as bucket
// elimination over forbidden-tuple constraints: eliminating a nest point x
// never enlarges constraint scopes (the scopes containing x form a
// ⊆-chain) and never increases the number of forbidden tuples.
package ncq

import (
	"fmt"
	"sort"

	"repro/internal/database"
	"repro/internal/hypergraph"
)

// Constraint forbids a set of tuples over its scope: an assignment ν
// violates it if (ν(v))_{v ∈ Scope} is in Forbidden.
type Constraint struct {
	Scope     []string
	Forbidden []database.Tuple
}

// CSP is a negative constraint network: variables range over a common
// finite domain and every constraint lists forbidden tuples.
type CSP struct {
	Domain      []database.Value
	Vars        []string
	Constraints []Constraint
}

// Hypergraph returns the constraint hypergraph (vertices: variables,
// edges: scopes).
func (c *CSP) Hypergraph() *hypergraph.Hypergraph {
	h := hypergraph.New()
	for i, ct := range c.Constraints {
		h.AddEdge(hypergraph.NewEdge(fmt.Sprintf("C%d", i), ct.Scope...))
	}
	for _, v := range c.Vars {
		h.AddVertex(v)
	}
	return h
}

// IsBetaAcyclic reports β-acyclicity of the constraint hypergraph.
func (c *CSP) IsBetaAcyclic() bool {
	return hypergraph.IsBetaAcyclic(c.Hypergraph())
}

// SolveBrute decides satisfiability by exhaustive search — the reference
// implementation.
func (c *CSP) SolveBrute() bool {
	asg := map[string]database.Value{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(c.Vars) {
			return !c.violated(asg)
		}
		for _, v := range c.Domain {
			asg[c.Vars[i]] = v
			if !c.violatedPartial(asg) && rec(i+1) {
				return true
			}
		}
		delete(asg, c.Vars[i])
		return false
	}
	return rec(0)
}

func (c *CSP) violated(asg map[string]database.Value) bool {
	for _, ct := range c.Constraints {
		for _, f := range ct.Forbidden {
			hit := true
			for i, v := range ct.Scope {
				if asg[v] != f[i] {
					hit = false
					break
				}
			}
			if hit {
				return true
			}
		}
	}
	return false
}

// violatedPartial reports a violation among fully assigned constraints.
func (c *CSP) violatedPartial(asg map[string]database.Value) bool {
	for _, ct := range c.Constraints {
		full := true
		for _, v := range ct.Scope {
			if _, ok := asg[v]; !ok {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		for _, f := range ct.Forbidden {
			hit := true
			for i, v := range ct.Scope {
				if asg[v] != f[i] {
					hit = false
					break
				}
			}
			if hit {
				return true
			}
		}
	}
	return false
}

// SolveBetaAcyclic decides satisfiability by nest-point-driven elimination
// (Theorem 4.31). It returns an error if the constraint hypergraph is not
// β-acyclic. The elimination of a variable x uses that the scopes
// containing x form a chain S₁ ⊆ ... ⊆ S_m: a partial assignment over
// S_j − x is newly forbidden iff the x-values forbidden by levels ≤ j
// already exhaust the domain. New forbidden tuples are restrictions of
// existing ones, so the instance never grows.
func (c *CSP) SolveBetaAcyclic() (bool, error) {
	if len(c.Domain) == 0 {
		return false, fmt.Errorf("ncq: empty domain")
	}
	cons := append([]Constraint(nil), c.Constraints...)
	remaining := append([]string(nil), c.Vars...)
	for len(remaining) > 0 {
		// Pick a nest point of the current hypergraph.
		x, ok := pickNestPoint(remaining, cons)
		if !ok {
			return false, fmt.Errorf("ncq: constraint hypergraph is not β-acyclic")
		}
		var err error
		cons, err = eliminate(x, cons, c.Domain)
		if err != nil {
			return false, err
		}
		for _, ct := range cons {
			if len(ct.Scope) == 0 && len(ct.Forbidden) > 0 {
				return false, nil // empty forbidden tuple: contradiction
			}
		}
		out := remaining[:0]
		for _, v := range remaining {
			if v != x {
				out = append(out, v)
			}
		}
		remaining = out
	}
	for _, ct := range cons {
		if len(ct.Scope) == 0 && len(ct.Forbidden) > 0 {
			return false, nil
		}
	}
	return true, nil
}

// pickNestPoint returns a variable whose containing scopes form a ⊆-chain.
func pickNestPoint(vars []string, cons []Constraint) (string, bool) {
	for _, x := range vars {
		var scopes [][]string
		for _, ct := range cons {
			if contains(ct.Scope, x) {
				scopes = append(scopes, ct.Scope)
			}
		}
		sort.Slice(scopes, func(i, j int) bool { return len(scopes[i]) < len(scopes[j]) })
		ok := true
		for i := 0; i+1 < len(scopes); i++ {
			if !subsetOf(scopes[i], scopes[i+1]) {
				ok = false
				break
			}
		}
		if ok {
			return x, true
		}
	}
	return "", false
}

func contains(scope []string, v string) bool {
	for _, s := range scope {
		if s == v {
			return true
		}
	}
	return false
}

func subsetOf(a, b []string) bool {
	for _, v := range a {
		if !contains(b, v) {
			return false
		}
	}
	return true
}

// eliminate removes variable x, replacing the constraints mentioning it.
func eliminate(x string, cons []Constraint, domain []database.Value) ([]Constraint, error) {
	var keep []Constraint
	type level struct {
		scope  []string // S_j − x
		xCol   int
		cols   []int                     // columns of S_j tuples giving S_j − x
		keys   *database.KeyMap          // the S_j − x projections of forbidden tuples
		forbid []map[database.Value]bool // per key id: the forbidden x-values
	}
	byScope := map[string]*level{}
	var levels []*level
	for _, ct := range cons {
		if !contains(ct.Scope, x) {
			keep = append(keep, ct)
			continue
		}
		key := fmt.Sprint(ct.Scope)
		lv := byScope[key]
		if lv == nil {
			lv = &level{}
			for i, v := range ct.Scope {
				if v == x {
					lv.xCol = i
				} else {
					lv.scope = append(lv.scope, v)
					lv.cols = append(lv.cols, i)
				}
			}
			lv.keys = database.NewKeyMap(len(lv.cols))
			byScope[key] = lv
			levels = append(levels, lv)
		}
		for _, f := range ct.Forbidden {
			k := lv.keys.Intern(f, lv.cols)
			if k == len(lv.forbid) {
				lv.forbid = append(lv.forbid, map[database.Value]bool{})
			}
			lv.forbid[k][f[lv.xCol]] = true
		}
	}
	if len(levels) == 0 {
		return keep, nil
	}
	// Chain order: smallest scope first.
	sort.Slice(levels, func(i, j int) bool { return len(levels[i].scope) < len(levels[j].scope) })
	for i := 0; i+1 < len(levels); i++ {
		if !subsetOf(levels[i].scope, levels[i+1].scope) {
			return nil, fmt.Errorf("ncq: scopes of %s do not form a chain", x)
		}
	}
	// For each level j and key k: union the forbidden x-values from levels
	// ≤ j (restricting k); if the union is the whole domain, k is dead.
	for j, lv := range levels {
		var out []database.Tuple
		// Column maps from this level's scope to each smaller level's.
		restrict := make([][]int, j)
		for i := 0; i < j; i++ {
			cols := make([]int, len(levels[i].scope))
			for a, v := range levels[i].scope {
				cols[a] = indexOf(lv.scope, v)
			}
			restrict[i] = cols
		}
		for k, vals := range lv.forbid {
			tup := lv.keys.Key(k)
			n := len(vals)
			seen := map[database.Value]bool{}
			for v := range vals {
				seen[v] = true
			}
			for i := 0; i < j; i++ {
				rk := levels[i].keys.Find(tup, restrict[i])
				if rk < 0 {
					continue
				}
				for v := range levels[i].forbid[rk] {
					if !seen[v] {
						seen[v] = true
						n++
					}
				}
			}
			if n >= len(domain) {
				out = append(out, tup)
			}
		}
		if len(out) > 0 {
			keep = append(keep, Constraint{Scope: lv.scope, Forbidden: out})
		}
	}
	return keep, nil
}

func indexOf(scope []string, v string) int {
	for i, s := range scope {
		if s == v {
			return i
		}
	}
	panic("ncq: variable not in scope")
}
