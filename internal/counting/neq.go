package counting

import (
	"fmt"
	"math/big"

	"repro/internal/database"
	"repro/internal/ineq"
	"repro/internal/logic"
)

// CountNeq counts |φ(D)| for a conjunctive query with equalities and
// disequalities, completing the Theorem 4.20 picture on the counting side.
//
// When every comparison touches only free variables (and constants), each
// disequality is the complement of an equality over the *answer tuple*, so
// inclusion–exclusion applies:
//
//	|{ā : all zᵢ ≠ z′ᵢ}| = Σ_{T ⊆ Δ} (−1)^{|T|} |{ā : equalities in T}|,
//
// and a conjunctive query with forced equalities is again a conjunctive
// query (variables merged, constants substituted), counted by the
// star-size algorithm of Theorem 4.28 when acyclic and by backtracking
// otherwise. The cost is 2^|Δ| counting calls — exponential only in the
// number of disequalities, a query parameter.
//
// When a comparison involves an existentially quantified variable,
// inclusion–exclusion over projected answers is unsound (an answer may
// have witnesses on both sides of the split), so the count falls back to
// generic backtracking. A bound ACQ≠ statement (internal/plan) counts such
// a free-connex query on its own witness-set enumerator instead.
func CountNeq(db *database.Database, q *logic.CQ) (*big.Int, error) {
	if len(q.NegAtoms) > 0 {
		return nil, fmt.Errorf("counting: negated atoms not supported by CountNeq")
	}
	var eqs, neqs []logic.Comparison
	for _, c := range q.Comparisons {
		switch c.Op {
		case logic.EQ:
			eqs = append(eqs, c)
		case logic.NEQ:
			neqs = append(neqs, c)
		default:
			return nil, fmt.Errorf("counting: order comparison %s not supported (Theorem 4.15)", c)
		}
	}
	if !ineq.HeadOnly(q) {
		res, err := ineq.EvalBacktrack(db, q)
		if err != nil {
			return nil, err
		}
		return big.NewInt(int64(len(res))), nil
	}
	if len(neqs) > 12 {
		return nil, fmt.Errorf("counting: too many disequalities (%d) for inclusion–exclusion", len(neqs))
	}
	total := new(big.Int)
	for mask := 0; mask < 1<<len(neqs); mask++ {
		forced := append([]logic.Comparison(nil), eqs...)
		bits := 0
		for i, c := range neqs {
			if mask&(1<<i) != 0 {
				bits++
				forced = append(forced, logic.Comparison{Op: logic.EQ, L: c.L, R: c.R})
			}
		}
		cnt, err := countWithEqualities(db, q, forced)
		if err != nil {
			return nil, err
		}
		if bits%2 == 0 {
			total.Add(total, cnt)
		} else {
			total.Sub(total, cnt)
		}
	}
	return total, nil
}

// countWithEqualities counts the query with the given equalities forced
// (and all other comparisons dropped).
func countWithEqualities(db *database.Database, q *logic.CQ, eqs []logic.Comparison) (*big.Int, error) {
	// Union-find over variables, with an optional constant per class.
	parent := map[string]string{}
	var find func(string) string
	find = func(v string) string {
		p, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		if p != v {
			parent[v] = find(p)
		}
		return parent[v]
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	constOf := map[string]database.Value{}
	bindConst := func(v string, c database.Value) bool {
		r := find(v)
		if prev, ok := constOf[r]; ok {
			return prev == c
		}
		constOf[r] = c
		return true
	}
	for _, e := range eqs {
		switch {
		case e.L.IsConst && e.R.IsConst:
			if e.L.Const != e.R.Const {
				return new(big.Int), nil
			}
		case e.L.IsConst:
			if !bindConst(e.R.Var, e.L.Const) {
				return new(big.Int), nil
			}
		case e.R.IsConst:
			if !bindConst(e.L.Var, e.R.Const) {
				return new(big.Int), nil
			}
		default:
			ra, rb := find(e.L.Var), find(e.R.Var)
			if ra == rb {
				continue
			}
			ca, hasA := constOf[ra]
			cb, hasB := constOf[rb]
			if hasA && hasB && ca != cb {
				return new(big.Int), nil
			}
			union(ra, rb)
			r := find(ra)
			if hasA {
				if !bindConst(r, ca) {
					return new(big.Int), nil
				}
			}
			if hasB {
				if !bindConst(r, cb) {
					return new(big.Int), nil
				}
			}
		}
	}
	mapTerm := func(t logic.Term) logic.Term {
		if t.IsConst {
			return t
		}
		r := find(t.Var)
		if c, ok := constOf[r]; ok {
			return logic.C(c)
		}
		return logic.V(r)
	}
	q2 := &logic.CQ{Name: q.Name + "_eq"}
	dbx := db
	// Head positions bound to constants become fresh variables constrained
	// by singleton relations, so the query stays in pure CQ form.
	singles := map[database.Value]string{}
	ensureSingle := func(c database.Value) string {
		if nm, ok := singles[c]; ok {
			return nm
		}
		nm := fmt.Sprintf("__const_%d__", c)
		if dbx == db {
			dbx = database.NewDatabase()
			for _, name := range db.Names() {
				dbx.AddRelation(db.Relation(name))
			}
		}
		rel := database.NewRelation(nm, 1)
		rel.InsertValues(c)
		dbx.AddRelation(rel)
		singles[c] = nm
		return nm
	}
	for i, v := range q.Head {
		t := mapTerm(logic.V(v))
		if t.IsConst {
			fresh := fmt.Sprintf("hc%d", i)
			q2.Head = append(q2.Head, fresh)
			q2.Atoms = append(q2.Atoms, logic.NewAtom(ensureSingle(t.Const), fresh))
		} else {
			q2.Head = append(q2.Head, t.Var)
		}
	}
	for _, a := range q.Atoms {
		na := logic.Atom{Pred: a.Pred}
		for _, t := range a.Args {
			na.Args = append(na.Args, mapTerm(t))
		}
		q2.Atoms = append(q2.Atoms, na)
	}
	return countIntersection(dbx, q2)
}
