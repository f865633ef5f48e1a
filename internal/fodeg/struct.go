// Package fodeg implements Section 3 of the paper: first-order queries
// over structures of bounded degree, with linear-time model checking
// (Theorem 3.1), linear-time counting and constant-delay enumeration
// (Theorem 3.2), via the quantifier-elimination method of [32] illustrated
// in Example 3.3.
//
// Following the paper ("it is convenient to represent bounded degree
// relations by a collection of partial injective functions"), structures
// are functional: a finite domain {0..n-1}, unary predicates as bitmaps,
// and partial injective unary functions with their inverses. A
// bounded-degree (multi)graph converts into this form by greedy edge
// colouring into at most 2d+1 partial matchings.
package fodeg

import (
	"fmt"
)

// Structure is a functional structure of bounded degree: unary predicates
// and partial injective unary functions over domain 0..N-1. Index -1 marks
// "undefined".
type Structure struct {
	N int

	predNames map[string]int
	preds     [][]bool // bitmaps
	counts    []int    // cached popcounts

	funcNames map[string]int
	funcs     [][]int // partial injective maps, -1 = undefined
	inverse   []int   // inverse[f] = id of f's inverse function
}

// NewStructure creates an empty functional structure over 0..n-1.
func NewStructure(n int) *Structure {
	return &Structure{N: n, predNames: map[string]int{}, funcNames: map[string]int{}}
}

// AddPred registers a unary predicate bitmap (length N) under name.
func (s *Structure) AddPred(name string, bits []bool) (int, error) {
	if len(bits) != s.N {
		return 0, fmt.Errorf("fodeg: predicate %q has %d bits, want %d", name, len(bits), s.N)
	}
	if _, ok := s.predNames[name]; ok {
		return 0, fmt.Errorf("fodeg: duplicate predicate %q", name)
	}
	id := s.internBitmap(bits)
	s.predNames[name] = id
	return id, nil
}

// internBitmap stores a bitmap and returns its id.
func (s *Structure) internBitmap(bits []bool) int {
	c := 0
	for _, b := range bits {
		if b {
			c++
		}
	}
	s.preds = append(s.preds, bits)
	s.counts = append(s.counts, c)
	return len(s.preds) - 1
}

// AddFunc registers a partial injective function (length N, entries -1 or
// in range) and its inverse; it returns the function id. The inverse gets
// id+1 and name name+"~".
func (s *Structure) AddFunc(name string, f []int) (int, error) {
	if len(f) != s.N {
		return 0, fmt.Errorf("fodeg: function %q has %d entries, want %d", name, len(f), s.N)
	}
	if _, ok := s.funcNames[name]; ok {
		return 0, fmt.Errorf("fodeg: duplicate function %q", name)
	}
	inv := make([]int, s.N)
	for i := range inv {
		inv[i] = -1
	}
	for a, b := range f {
		if b == -1 {
			continue
		}
		if b < 0 || b >= s.N {
			return 0, fmt.Errorf("fodeg: function %q maps %d out of range", name, a)
		}
		if inv[b] != -1 {
			return 0, fmt.Errorf("fodeg: function %q is not injective (%d and %d both map to %d)", name, inv[b], a, b)
		}
		inv[b] = a
	}
	id := len(s.funcs)
	s.funcs = append(s.funcs, f)
	s.funcs = append(s.funcs, inv)
	s.inverse = append(s.inverse, id+1, id)
	s.funcNames[name] = id
	s.funcNames[name+"~"] = id + 1
	return id, nil
}

// PredID returns the id of a named predicate.
func (s *Structure) PredID(name string) (int, bool) {
	id, ok := s.predNames[name]
	return id, ok
}

// Pred returns the bitmap with the given id.
func (s *Structure) Pred(id int) []bool { return s.preds[id] }

// Inverse returns the id of the inverse of function id.
func (s *Structure) Inverse(id int) int { return s.inverse[id] }

// Apply evaluates function id at a; -1 if undefined or a == -1.
func (s *Structure) Apply(id, a int) int {
	if a < 0 {
		return -1
	}
	return s.funcs[id][a]
}

// Term is a composition of functions applied to a variable:
// Path[len-1](...(Path[0](x))...).
type Term struct {
	Var  string
	Path []int
}

// Eval evaluates the term at a; -1 if undefined anywhere along the path.
func (t Term) Eval(s *Structure, a int) int {
	for _, f := range t.Path {
		if a < 0 {
			return -1
		}
		a = s.Apply(f, a)
	}
	return a
}

// InversePath returns the reversed path of inverses, so that if
// t(x) = y then InversePath(t)(y) = x (by injectivity).
func (s *Structure) InversePath(path []int) []int {
	out := make([]int, len(path))
	for i, f := range path {
		out[len(path)-1-i] = s.Inverse(f)
	}
	return out
}

// PullbackPred computes the bitmap {a : t-path(a) defined and bitmap holds
// at it}. With predID < 0 it computes the definedness bitmap
// {a : path(a) defined}. Linear time.
func (s *Structure) PullbackPred(path []int, predID int) []bool {
	out := make([]bool, s.N)
	for a := 0; a < s.N; a++ {
		v := Term{Path: path}.Eval(s, a)
		if v < 0 {
			continue
		}
		if predID < 0 || s.preds[predID][v] {
			out[a] = true
		}
	}
	return out
}

// EqBitmap computes {a : p(a) and q(a) both defined and equal} (for eq) or
// {a : not(both defined and equal)} (for neq).
func (s *Structure) EqBitmap(p, q []int, eq bool) []bool {
	out := make([]bool, s.N)
	for a := 0; a < s.N; a++ {
		v := Term{Path: p}.Eval(s, a)
		w := Term{Path: q}.Eval(s, a)
		same := v >= 0 && w >= 0 && v == w
		if same == eq {
			out[a] = true
		}
	}
	return out
}

// AndBitmaps intersects bitmaps (with optional negation flags).
func AndBitmaps(n int, maps [][]bool, neg []bool) []bool {
	out := make([]bool, n)
	for i := range out {
		ok := true
		for j, m := range maps {
			v := m[i]
			if neg[j] {
				v = !v
			}
			if !v {
				ok = false
				break
			}
		}
		out[i] = ok
	}
	return out
}

// FromGraph builds a functional structure from an undirected graph given
// as an adjacency list, decomposing the edge set into partial injective
// functions e0, e1, ... by greedy colouring (at most 2Δ−1 colours, each a
// partial matching — the representation step of Theorem 3.1/3.2). Unary
// predicates may be supplied as bitmaps.
func FromGraph(n int, edges [][2]int, preds map[string][]bool) (*Structure, error) {
	s := NewStructure(n)
	type matching struct {
		fwd []int
		rev []int
	}
	var ms []*matching
	place := func(a, b int) {
		for _, m := range ms {
			if m.fwd[a] == -1 && m.rev[b] == -1 {
				m.fwd[a] = b
				m.rev[b] = a
				return
			}
		}
		m := &matching{fwd: make([]int, n), rev: make([]int, n)}
		for i := 0; i < n; i++ {
			m.fwd[i] = -1
			m.rev[i] = -1
		}
		m.fwd[a] = b
		m.rev[b] = a
		ms = append(ms, m)
	}
	seen := map[[2]int]bool{}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("fodeg: edge (%d,%d) out of range", a, b)
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		place(a, b)
	}
	for i, m := range ms {
		if _, err := s.AddFunc(fmt.Sprintf("e%d", i), m.fwd); err != nil {
			return nil, err
		}
	}
	for name, bits := range preds {
		if _, err := s.AddPred(name, bits); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// EdgeFuncIDs returns the ids of the edge-matching functions e0.. and their
// inverses, for translating E(x,y) atoms.
func (s *Structure) EdgeFuncIDs() []int {
	var out []int
	for i := 0; ; i++ {
		id, ok := s.funcNames[fmt.Sprintf("e%d", i)]
		if !ok {
			break
		}
		out = append(out, id, s.inverse[id])
	}
	return out
}
