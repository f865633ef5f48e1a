// Package ineq implements Section 4.3 of the paper: acyclic conjunctive
// queries extended with comparisons (<, ≤) and disequalities (≠).
//
// For disequalities it implements the covers machinery of Definitions
// 4.16–4.19 (covers, minimal covers, representative sets, with the k! and
// O(k!) bounds) and a constant-delay enumerator for free-connex ACQ≠
// (Theorem 4.20) that uses representative sets as witnesses for
// existentially quantified variables under disequality constraints.
//
// For order comparisons it implements the Theorem 4.15 reduction showing
// that ACQ< expresses k-clique (W[1]-hardness), together with a generic
// backtracking evaluator used as the baseline.
package ineq

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/database"
)

// Blank is the ⊔ symbol of Definition 4.16. It must not occur as a table
// value.
const Blank database.Value = -1 << 62

// Table is a pair (E, f) of Definition 4.16: a finite set E (the rows) and
// a tuple of k functions E → F (the columns): Rows[x][i] = fᵢ(x).
type Table struct {
	K    int
	Rows []database.Tuple // each of length K
}

// Cover is a tuple (c₁,...,c_k) ∈ (F ∪ {⊔})^k such that every row is "hit":
// for all x ∈ E there is i ≤ k with cᵢ = fᵢ(x).
type Cover = database.Tuple

// IsCover reports whether c hits every row of the table (Definition 4.16).
// The empty table is covered by anything. Its negation, some row avoiding
// every non-blank value of c, is the primitive used to decide ∃z with
// disequalities (Section 4.3).
func (t Table) IsCover(c Cover) bool {
	for _, row := range t.Rows {
		hit := false
		for i := 0; i < t.K; i++ {
			if c[i] != Blank && c[i] == row[i] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// MoreGeneral reports c′ ≤ c of Definition 4.17: for all i, cᵢ = c′ᵢ or
// c′ᵢ = ⊔.
func MoreGeneral(cPrime, c Cover) bool {
	for i := range c {
		if cPrime[i] != Blank && cPrime[i] != c[i] {
			return false
		}
	}
	return true
}

// ColumnValues returns, per column, the sorted distinct values occurring in
// the table, with Blank prepended. Vectors using values outside these sets
// behave exactly like vectors with Blank in those slots, so enumerating over
// them is enough to enumerate all covering behaviours.
func (t Table) ColumnValues() [][]database.Value {
	colVals := make([][]database.Value, t.K)
	for i := 0; i < t.K; i++ {
		seen := map[database.Value]bool{Blank: true}
		colVals[i] = []database.Value{Blank}
		for _, r := range t.Rows {
			if !seen[r[i]] {
				seen[r[i]] = true
				colVals[i] = append(colVals[i], r[i])
			}
		}
		sort.Slice(colVals[i], func(a, b int) bool { return colVals[i][a] < colVals[i][b] })
	}
	return colVals
}

// AllCovers enumerates covers(E, f) by brute force over (values ∪ {⊔})^k,
// where values are those occurring in the table. Reference implementation
// for tests; exponential in k.
func (t Table) AllCovers() []Cover { return t.AllCoversOver(t.ColumnValues()) }

// AllCoversOver enumerates the covers drawing column i's candidate values
// from colVals[i]. Used to compare cover sets of different tables over a
// common value domain.
func (t Table) AllCoversOver(colVals [][]database.Value) []Cover {
	var out []Cover
	c := make(Cover, t.K)
	var rec func(i int)
	rec = func(i int) {
		if i == t.K {
			if t.IsCover(c) {
				out = append(out, c.Clone())
			}
			return
		}
		for _, v := range colVals[i] {
			c[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// MinimalCovers computes min-covers(E, f): the covers with no strictly more
// general cover, via the recursion of Section 4.3 (remark (1)): c covers E
// iff some i has cᵢ = fᵢ(a) and c₋ᵢ covers Eᵃᵢ = {x : fᵢ(x) ≠ fᵢ(a)}, for
// an arbitrary a ∈ E. The result has at most k! elements.
func (t Table) MinimalCovers() []Cover {
	set := map[string]Cover{}
	cur := make(Cover, t.K)
	for i := range cur {
		cur[i] = Blank
	}
	active := make([]bool, t.K)
	var rec func(rows []database.Tuple)
	rec = func(rows []database.Tuple) {
		if len(rows) == 0 {
			set[cur.FullKey()] = cur.Clone()
			return
		}
		a := rows[0]
		for i := 0; i < t.K; i++ {
			if active[i] {
				continue
			}
			// Choose c_i = f_i(a); recurse on rows not hit by this choice.
			var rest []database.Tuple
			for _, r := range rows {
				if r[i] != a[i] {
					rest = append(rest, r)
				}
			}
			cur[i] = a[i]
			active[i] = true
			rec(rest)
			cur[i] = Blank
			active[i] = false
		}
	}
	rec(t.Rows)
	// The recursion can emit non-minimal covers (a value chosen for one
	// column may be subsumed); filter to the minimal ones.
	var all []Cover
	for _, c := range set {
		all = append(all, c)
	}
	var out []Cover
	for _, c := range all {
		minimal := true
		for _, d := range all {
			if !d.Equal(c) && MoreGeneral(d, c) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// RepresentativeSet returns a subset R of the rows with
// covers(E, f) = covers(R, f), of size O(k!) (Section 4.3, remark (2)),
// built by the same recursion as MinimalCovers, keeping the chosen pivot
// row at each step.
func (t Table) RepresentativeSet() []database.Tuple {
	picked := map[string]database.Tuple{}
	active := make([]bool, t.K)
	var rec func(rows []database.Tuple)
	rec = func(rows []database.Tuple) {
		if len(rows) == 0 {
			return
		}
		a := rows[0]
		picked[a.FullKey()] = a
		for i := 0; i < t.K; i++ {
			if active[i] {
				continue
			}
			var rest []database.Tuple
			for _, r := range rows {
				if r[i] != a[i] {
					rest = append(rest, r)
				}
			}
			active[i] = true
			rec(rest)
			active[i] = false
		}
	}
	rec(t.Rows)
	out := make([]database.Tuple, 0, len(picked))
	for _, r := range picked {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// CoverString renders a cover with ⊔ for blanks, e.g. "(1,2,3,⊔)".
func CoverString(c Cover) string {
	parts := make([]string, len(c))
	for i, v := range c {
		if v == Blank {
			parts[i] = "⊔"
		} else {
			parts[i] = strconv.FormatInt(int64(v), 10)
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}
