package counting

import (
	"fmt"
	"math/big"

	"repro/internal/database"
	"repro/internal/ineq"
	"repro/internal/logic"
)

// CountUCQ computes |φ1(D) ∪ ... ∪ φk(D)| by inclusion–exclusion: the
// intersection of conjunctive-query answer sets is itself a conjunctive
// query (the disjuncts' bodies conjoined after renaming the non-head
// variables apart and unifying the head positionally), so each term is a
// ♯ACQ instance for the star-size algorithm of Theorem 4.28 — with a
// backtracking fallback when an intersection turns out cyclic. The cost is
// 2^k counting calls, exponential only in the number of disjuncts.
func CountUCQ(db *database.Database, u *logic.UCQ) (*big.Int, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	k := len(u.Disjuncts)
	if k == 0 {
		return new(big.Int), nil
	}
	if k > 16 {
		return nil, fmt.Errorf("counting: too many disjuncts (%d) for inclusion–exclusion", k)
	}
	for _, d := range u.Disjuncts {
		if len(d.NegAtoms) > 0 || len(d.Comparisons) > 0 {
			return nil, fmt.Errorf("counting: UCQ counting supports plain conjunctive disjuncts only")
		}
	}
	total := new(big.Int)
	for mask := 1; mask < 1<<k; mask++ {
		var sel []*logic.CQ
		bits := 0
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, u.Disjuncts[i])
				bits++
			}
		}
		q, err := IntersectCQs(sel)
		if err != nil {
			return nil, err
		}
		cnt, err := countIntersection(db, q)
		if err != nil {
			return nil, err
		}
		if bits%2 == 1 {
			total.Add(total, cnt)
		} else {
			total.Sub(total, cnt)
		}
	}
	return total, nil
}

func countIntersection(db *database.Database, q *logic.CQ) (*big.Int, error) {
	if q.IsAcyclic() {
		s := BigInt{}
		v, err := Count(db, q, UnitWeight(s), s, nil)
		if err == nil {
			return v.(*big.Int), nil
		}
		// Fall through to backtracking (e.g. unsafe corner cases).
	}
	res, err := ineq.EvalBacktrack(db, q)
	if err != nil {
		return nil, err
	}
	return big.NewInt(int64(len(res))), nil
}

// IntersectCQs builds the conjunctive query whose answers are the
// intersection of the given queries' answer sets (all of the same arity):
// head positions are unified (a disjunct that repeats a head variable
// forces the corresponding positions equal, propagated by union–find), and
// body variables are renamed apart.
func IntersectCQs(ds []*logic.CQ) (*logic.CQ, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("counting: empty intersection")
	}
	m := len(ds[0].Head)
	// Union-find over head positions.
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, d := range ds {
		if len(d.Head) != m {
			return nil, fmt.Errorf("counting: arity mismatch in intersection")
		}
		first := map[string]int{}
		for j, v := range d.Head {
			if f, ok := first[v]; ok {
				union(f, j)
			} else {
				first[v] = j
			}
		}
	}
	posName := func(j int) string { return fmt.Sprintf("h%d", find(j)) }

	out := &logic.CQ{Name: "Intersect"}
	for j := 0; j < m; j++ {
		out.Head = append(out.Head, posName(j))
	}
	for di, d := range ds {
		rename := map[string]string{}
		for j, v := range d.Head {
			rename[v] = posName(j)
		}
		mapTerm := func(t logic.Term) logic.Term {
			if t.IsConst {
				return t
			}
			if nm, ok := rename[t.Var]; ok {
				return logic.V(nm)
			}
			return logic.V(fmt.Sprintf("d%d_%s", di, t.Var))
		}
		for _, a := range d.Atoms {
			na := logic.Atom{Pred: a.Pred}
			for _, t := range a.Args {
				na.Args = append(na.Args, mapTerm(t))
			}
			out.Atoms = append(out.Atoms, na)
		}
	}
	return out, nil
}
