// Package ucq implements Section 4.2 of the paper: enumeration for unions
// of conjunctive queries. It provides body homomorphisms, the "provides"
// relation between disjuncts (Definition 4.11), union extensions
// (Definition 4.12), the free-connex test for UCQs, and the constant-delay
// union enumerator of Theorem 4.13 with duplicate elimination.
package ucq

import (
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/hypergraph"
	"repro/internal/logic"
)

// Hom is a body homomorphism h : var(φ_from) → var(φ_to): a variable
// mapping such that every atom R(x̄) of φ_from maps to an atom R(h(x̄)) of
// φ_to (Definition 4.11).
type Hom map[string]string

// BodyHomomorphisms enumerates all body homomorphisms from the positive
// atoms of `from` to those of `to`, by backtracking over atom images.
// Constants must be preserved.
func BodyHomomorphisms(from, to *logic.CQ) []Hom {
	var out []Hom
	h := Hom{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(from.Atoms) {
			c := Hom{}
			for k, v := range h {
				c[k] = v
			}
			out = append(out, c)
			return
		}
		fa := from.Atoms[i]
		for _, ta := range to.Atoms {
			if ta.Pred != fa.Pred || len(ta.Args) != len(fa.Args) {
				continue
			}
			// Try mapping fa onto ta.
			var added []string
			ok := true
			for j := range fa.Args {
				ft, tt := fa.Args[j], ta.Args[j]
				if ft.IsConst {
					if !tt.IsConst || tt.Const != ft.Const {
						ok = false
						break
					}
					continue
				}
				if tt.IsConst {
					ok = false // variables must map to variables here
					break
				}
				if img, bound := h[ft.Var]; bound {
					if img != tt.Var {
						ok = false
						break
					}
				} else {
					h[ft.Var] = tt.Var
					added = append(added, ft.Var)
				}
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range added {
				delete(h, v)
			}
		}
	}
	rec(0)
	return out
}

// SConnex reports whether q is S-connex: q is acyclic and its hypergraph
// extended with an edge over S remains acyclic (the generalization of
// free-connexity used in Definition 4.11).
func SConnex(q *logic.CQ, s []string) bool {
	h := q.Hypergraph()
	if !hypergraph.IsAcyclic(h) {
		return false
	}
	h2 := h.Clone()
	h2.AddEdge(hypergraph.NewEdge("__S__", s...))
	return hypergraph.IsAcyclic(h2)
}

// Provided is a variable set of the target disjunct provided by another
// disjunct (Definition 4.11), with the witnessing homomorphism.
type Provided struct {
	Vars     []string // sorted variable set of the target
	Provider int      // index of the providing disjunct
	H        Hom      // body homomorphism provider → target
}

// ProvidedSets computes the maximal variable sets of `target` provided by
// `provider` (Definition 4.11): for every body homomorphism h and every
// S ⊆ free(provider) such that provider is S-connex, the set
// V = {v ∈ h(S) : h⁻¹(v) ⊆ S} is provided, and so is every subset.
// Only maximal V per (h,S) are returned; subsets are implicit.
func ProvidedSets(provider *logic.CQ, providerIdx int, target *logic.CQ) []Provided {
	free := provider.Head
	if len(free) > 12 {
		return nil // subset search would blow up; providers are small
	}
	var out []Provided
	seen := map[string]bool{}
	for _, h := range BodyHomomorphisms(provider, target) {
		// Preimage map under h.
		pre := map[string][]string{}
		for _, u := range provider.Vars() {
			if img, ok := h[u]; ok {
				pre[img] = append(pre[img], u)
			}
		}
		for mask := 0; mask < 1<<len(free); mask++ {
			var s []string
			sset := map[string]bool{}
			for b, v := range free {
				if mask&(1<<b) != 0 {
					s = append(s, v)
					sset[v] = true
				}
			}
			if len(s) == 0 || !SConnex(provider, s) {
				continue
			}
			var V []string
			for _, u := range s {
				v, ok := h[u]
				if !ok {
					continue
				}
				all := true
				for _, w := range pre[v] {
					if !sset[w] {
						all = false
						break
					}
				}
				if all {
					V = append(V, v)
				}
			}
			V = dedupSorted(V)
			if len(V) == 0 {
				continue
			}
			key := fmt.Sprint(V, providerIdx, homKey(h, provider))
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Provided{Vars: V, Provider: providerIdx, H: h})
		}
	}
	return out
}

func dedupSorted(vs []string) []string {
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func homKey(h Hom, q *logic.CQ) string {
	vars := q.Vars()
	sort.Strings(vars)
	s := ""
	for _, v := range vars {
		s += v + ">" + h[v] + ";"
	}
	return s
}

// ExtAtom is a fresh atom P(v̄) added by a union extension
// (Definition 4.12).
type ExtAtom struct {
	Pred string
	Prov Provided
}

// Plan is the result of analyzing a UCQ for free-connexity via union
// extensions. Order lists the disjuncts in dependency order (providers
// before consumers); Extensions[i] lists the fresh atoms added to
// disjunct i.
type Plan struct {
	U          *logic.UCQ
	Order      []int
	Extensions [][]ExtAtom
}

// Analyze decides whether the UCQ is free-connex in the sense of
// Definition 4.12 (restricted to extensions by directly provided sets,
// iterated to a fixpoint so that chains of providers are found) and returns
// an enumeration plan. maxExtra bounds the number of fresh atoms tried per
// disjunct.
func Analyze(u *logic.UCQ, maxExtra int) (*Plan, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	k := len(u.Disjuncts)
	plan := &Plan{U: u, Extensions: make([][]ExtAtom, k)}
	resolved := make([]bool, k)
	for pass := 0; pass < k+1; pass++ {
		progress := false
		for i, d := range u.Disjuncts {
			if resolved[i] {
				continue
			}
			if !d.IsAcyclic() {
				continue // might become enumerable only via other disjuncts? no: extensions only add atoms, keep trying below
			}
			// Candidate provided sets from already-resolved disjuncts.
			var cands []Provided
			for j, p := range u.Disjuncts {
				if i == j || !resolved[j] {
					continue
				}
				cands = append(cands, ProvidedSets(p, j, d)...)
			}
			ext, ok := searchExtension(d, cands, maxExtra)
			if ok {
				resolved[i] = true
				plan.Extensions[i] = ext
				plan.Order = append(plan.Order, i)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for i := range resolved {
		if !resolved[i] {
			return nil, fmt.Errorf("ucq: disjunct %d (%s) admits no free-connex union extension (within the search bounds)", i, u.Disjuncts[i])
		}
	}
	return plan, nil
}

// searchExtension looks for ≤ maxExtra candidate atoms whose addition makes
// d free-connex.
func searchExtension(d *logic.CQ, cands []Provided, maxExtra int) ([]ExtAtom, bool) {
	base := d.Hypergraph()
	if !hypergraph.IsAcyclic(base) {
		return nil, false
	}
	test := func(sel []int) bool {
		h := base.Clone()
		for _, ci := range sel {
			h.AddEdge(hypergraph.NewEdge(fmt.Sprintf("__p%d__", ci), cands[ci].Vars...))
		}
		if !hypergraph.IsAcyclic(h) {
			return false
		}
		return hypergraph.FreeConnex(h, d.Head)
	}
	if test(nil) {
		return nil, true
	}
	var sel []int
	var rec func(start, budget int) bool
	rec = func(start, budget int) bool {
		if budget == 0 {
			return false
		}
		for c := start; c < len(cands); c++ {
			sel = append(sel, c)
			if test(sel) {
				return true
			}
			if rec(c+1, budget-1) {
				return true
			}
			sel = sel[:len(sel)-1]
		}
		return false
	}
	if rec(0, maxExtra) {
		out := make([]ExtAtom, len(sel))
		for i, ci := range sel {
			out[i] = ExtAtom{Pred: fmt.Sprintf("__P%d_%d__", ci, i), Prov: cands[ci]}
		}
		return out, true
	}
	return nil, false
}

// Enumerate enumerates the answers of a free-connex UCQ with constant delay
// and no duplicates (Theorem 4.13). Disjuncts are processed in dependency
// order: each resolved disjunct is enumerated via its free-connex union
// extension; the fresh atoms' relations are filled from the already
// materialized answers of the providing disjuncts (any answer of φᵢ
// restricted through the body homomorphism is an answer of the provider, so
// the filter loses nothing — see the discussion of Equation 1).
//
// The preprocessing is linear in ‖D‖ plus the size of the provider answer
// sets (which are part of the output), so total time is O(‖D‖ + ‖φ(D)‖) as
// in Theorem 4.8; the paper's fully interleaved variant with strictly linear
// preprocessing is implemented for Equation 1 in EnumerateEq1.
func Enumerate(db *database.Database, u *logic.UCQ, maxExtra int, c *delay.Counter) (delay.Enumerator, error) {
	aspan := c.StartSpan("parse")
	plan, err := Analyze(u, maxExtra)
	aspan.End()
	if err != nil {
		return nil, err
	}
	mspan := c.StartSpan("join")
	defer mspan.End()
	answers := make([][]database.Tuple, len(u.Disjuncts))
	var enums []delay.Enumerator
	for _, i := range plan.Order {
		d := u.Disjuncts[i]
		// Build the extended query and its database.
		ext := &logic.CQ{Name: d.Name, Head: d.Head, Atoms: append([]logic.Atom(nil), d.Atoms...)}
		dbx := database.NewDatabase()
		for _, name := range db.Names() {
			dbx.AddRelation(db.Relation(name))
		}
		for _, ea := range plan.Extensions[i] {
			rel, err := providedRelation(ea, u.Disjuncts[ea.Prov.Provider], answers[ea.Prov.Provider])
			if err != nil {
				return nil, err
			}
			dbx.AddRelation(rel)
			ext.Atoms = append(ext.Atoms, logic.NewAtom(ea.Pred, ea.Prov.Vars...))
		}
		e, err := cq.EnumerateConstantDelay(dbx, ext, c)
		if err != nil {
			return nil, fmt.Errorf("ucq: disjunct %d: %w", i, err)
		}
		// Materialize so later disjuncts can use this one as provider, and
		// keep an enumerator over the materialized answers.
		answers[i] = delay.Collect(e)
		c.Tick(int64(len(answers[i])))
		enums = append(enums, delay.Slice(answers[i]))
	}
	// Emit in disjunct order with duplicate elimination.
	ordered := make([]delay.Enumerator, len(u.Disjuncts))
	for pos, i := range plan.Order {
		ordered[i] = enums[pos]
	}
	return delay.Dedup(delay.Concat(ordered...), c), nil
}

// providedRelation builds the fresh atom's relation from the provider's
// materialized answers: each answer tuple, read through the homomorphism,
// yields one tuple over the provided variables (when the preimages agree).
func providedRelation(ea ExtAtom, provider *logic.CQ, ans []database.Tuple) (*database.Relation, error) {
	pos := map[string]int{}
	for i, v := range provider.Head {
		pos[v] = i
	}
	// preimages of each provided variable, as answer positions
	pre := make([][]int, len(ea.Prov.Vars))
	for i, v := range ea.Prov.Vars {
		for u, img := range ea.Prov.H {
			if img != v {
				continue
			}
			p, ok := pos[u]
			if !ok {
				return nil, fmt.Errorf("ucq: provided variable %q has non-free preimage %q", v, u)
			}
			pre[i] = append(pre[i], p)
		}
		if len(pre[i]) == 0 {
			return nil, fmt.Errorf("ucq: provided variable %q has no preimage", v)
		}
	}
	rel := database.NewRelation(ea.Pred, len(ea.Prov.Vars))
	for _, a := range ans {
		t := make(database.Tuple, len(ea.Prov.Vars))
		ok := true
		for i, ps := range pre {
			t[i] = a[ps[0]]
			for _, p := range ps[1:] {
				if a[p] != t[i] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			rel.Insert(t)
		}
	}
	rel.Dedup()
	return rel, nil
}
