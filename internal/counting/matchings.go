package counting

import (
	"fmt"
	"math/big"

	"repro/internal/database"
	"repro/internal/logic"
)

// Equation 2 of the paper: over a bipartite graph G = (A ∪ B, E) with
// A = {a₁,...,aₙ}, B = {b₁,...,bₙ},
//
//	φ(x₁,...,xₙ)  =  ⋀ᵢ E(aᵢ,xᵢ)
//	ψ(x₁,...,xₙ)  =  ∃t ⋀ᵢ E(aᵢ,xᵢ) ∧ NE(t,xᵢ)
//
// where NE(t,x) holds for t,x ∈ B with t ≠ x (the paper writes both atoms
// with the same symbol E; the second must be read over the auxiliary
// "misses t" relation — a tuple x̄ fails to be surjective onto B exactly
// when some t ∈ B differs from every xᵢ). Then
//
//	#perfect-matchings(G) = |φ(G)| − |ψ(G)|,
//
// because |φ| counts all systems of representatives xᵢ ∈ N(aᵢ) and |ψ|
// counts the non-surjective ones; a surjective system on n elements is a
// bijection, i.e. a perfect matching. φ is quantifier-free while ψ has a
// single quantified variable of quantified star size n (Example 4.27) —
// this is the survey's witness that one existential quantifier already makes
// ♯ACQ ♯P-hard (Theorem 4.22).

// MatchingQueries builds the database and the two queries of Equation 2 for
// the bipartite graph with biadjacency matrix adj (adj[i][j]: edge aᵢ–bⱼ).
// Domain encoding: aᵢ ↦ i+1, bⱼ ↦ n+j+1.
func MatchingQueries(adj [][]bool) (*database.Database, *logic.CQ, *logic.CQ) {
	n := len(adj)
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	for i := range adj {
		for j, ok := range adj[i] {
			if ok {
				e.InsertValues(database.Value(i+1), database.Value(n+j+1))
			}
		}
	}
	db.AddRelation(e)
	ne := database.NewRelation("NE", 2)
	for t := 0; t < n; t++ {
		for x := 0; x < n; x++ {
			if t != x {
				ne.InsertValues(database.Value(n+t+1), database.Value(n+x+1))
			}
		}
	}
	db.AddRelation(ne)

	phi := &logic.CQ{Name: "phi"}
	psi := &logic.CQ{Name: "psi"}
	for i := 0; i < n; i++ {
		x := fmt.Sprintf("x%d", i+1)
		phi.Head = append(phi.Head, x)
		psi.Head = append(psi.Head, x)
		ai := logic.C(database.Value(i + 1))
		phi.Atoms = append(phi.Atoms, logic.Atom{Pred: "E", Args: []logic.Term{ai, logic.V(x)}})
		psi.Atoms = append(psi.Atoms, logic.Atom{Pred: "E", Args: []logic.Term{ai, logic.V(x)}})
		psi.Atoms = append(psi.Atoms, logic.Atom{Pred: "NE", Args: []logic.Term{logic.V("t"), logic.V(x)}})
	}
	return db, phi, psi
}

// PerfectMatchingsViaACQ counts the perfect matchings of the bipartite
// graph by evaluating |φ(G)| − |ψ(G)| per Equation 2. |φ| is computed with
// the polynomial quantifier-free counter; |ψ| with the star-size algorithm,
// whose cost grows as ‖D‖^n — the point of the example.
func PerfectMatchingsViaACQ(adj [][]bool) (*big.Int, error) {
	n := len(adj)
	db, phi, psi := MatchingQueries(adj)
	s := BigInt{}
	if n == 0 {
		return big.NewInt(1), nil // the empty graph has one (empty) matching
	}
	cphi, err := CountQuantifierFree(db, phi, UnitWeight(s), s, nil)
	if err != nil {
		return nil, err
	}
	cpsi, err := Count(db, psi, UnitWeight(s), s, nil)
	if err != nil {
		return nil, err
	}
	return new(big.Int).Sub(cphi.(*big.Int), cpsi.(*big.Int)), nil
}

// Permanent computes the permanent of the 0/1 biadjacency matrix by Ryser's
// inclusion–exclusion formula — the brute-force reference for the matching
// count.
func Permanent(adj [][]bool) *big.Int {
	n := len(adj)
	if n == 0 {
		return big.NewInt(1)
	}
	total := new(big.Int)
	row := make([]int64, n)
	for mask := 1; mask < 1<<n; mask++ {
		// row[i] = |N(a_i) ∩ S| for S given by mask.
		for i := 0; i < n; i++ {
			row[i] = 0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 && adj[i][j] {
					row[i]++
				}
			}
		}
		prod := big.NewInt(1)
		for i := 0; i < n; i++ {
			prod.Mul(prod, big.NewInt(row[i]))
		}
		if (n-popcount(mask))%2 == 1 {
			prod.Neg(prod)
		}
		total.Add(total, prod)
	}
	return total
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
