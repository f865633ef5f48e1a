package hypergraph

import (
	"testing"
	"testing/quick"
)

// Property: NewEdge is idempotent under shuffling and duplication of the
// vertex list.
func TestQuickNewEdgeCanonical(t *testing.T) {
	f := func(vs []uint8, dup uint8) bool {
		var names []string
		for _, v := range vs {
			names = append(names, string(rune('a'+v%6)))
		}
		e1 := NewEdge("E", names...)
		// Append duplicates and a rotation.
		extra := append(append([]string(nil), names...), names...)
		if len(names) > 1 {
			extra = append(extra[1:], extra[0])
		}
		e2 := NewEdge("E", extra...)
		if len(e1.Vertices) != len(e2.Vertices) {
			return false
		}
		for i := range e1.Vertices {
			if e1.Vertices[i] != e2.Vertices[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Intersect is symmetric in content and a subset of both edges.
func TestQuickEdgeLattice(t *testing.T) {
	f := func(a, b []uint8) bool {
		ea := mkEdge("A", a)
		eb := mkEdge("B", b)
		ia := ea.Intersect(eb)
		ib := eb.Intersect(ea)
		if len(ia) != len(ib) {
			return false
		}
		for i := range ia {
			if ia[i] != ib[i] {
				return false
			}
		}
		// Intersection is a subset of both.
		for _, v := range ia {
			if !ea.Has(v) || !eb.Has(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func mkEdge(name string, vs []uint8) Edge {
	var names []string
	for _, v := range vs {
		names = append(names, string(rune('a'+v%8)))
	}
	return NewEdge(name, names...)
}

// Property: adding an edge that covers all vertices makes any hypergraph
// α-acyclic; removing it may not preserve acyclicity (α is not hereditary),
// but GYO must accept the covered version.
func TestQuickCoveringEdgeAcyclic(t *testing.T) {
	f := func(spec [][3]uint8) bool {
		h := New()
		all := map[string]bool{}
		for i, tri := range spec {
			if i >= 5 {
				break
			}
			var names []string
			for _, v := range tri {
				nm := string(rune('a' + v%6))
				names = append(names, nm)
				all[nm] = true
			}
			h.AddEdge(NewEdge("e"+string(rune('0'+i)), names...))
		}
		if len(h.Edges) == 0 {
			return true
		}
		var cover []string
		for v := range all {
			cover = append(cover, v)
		}
		h.AddEdge(NewEdge("cover", cover...))
		return IsAcyclic(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the S-components partition the edges not contained in S.
func TestQuickSComponentsPartition(t *testing.T) {
	f := func(spec [][3]uint8, smask uint8) bool {
		h := New()
		for i, tri := range spec {
			if i >= 5 {
				break
			}
			var names []string
			for _, v := range tri {
				names = append(names, string(rune('a'+v%6)))
			}
			h.AddEdge(NewEdge("e"+string(rune('0'+i)), names...))
		}
		s := map[string]bool{}
		for b := 0; b < 6; b++ {
			if smask&(1<<b) != 0 {
				s[string(rune('a'+b))] = true
			}
		}
		comps := SComponents(h, s)
		seen := map[int]int{}
		for ci, c := range comps {
			for _, ei := range c.EdgeIdx {
				if _, dup := seen[ei]; dup {
					return false // an edge in two components
				}
				seen[ei] = ci
			}
		}
		for i, e := range h.Edges {
			outside := len(e.Minus(s)) > 0
			_, in := seen[i]
			if outside != in {
				return false // covered ⇔ not in any component
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Reroot preserves the edge set and the running-intersection
// property.
func TestQuickRerootPreservesValidity(t *testing.T) {
	f := func(spec [][2]uint8, pick uint8) bool {
		h := New()
		// Build a path-ish acyclic hypergraph: chain edges share a vertex.
		prev := "a"
		for i, p := range spec {
			if i >= 5 {
				break
			}
			next := string(rune('a' + p[0]%8))
			h.AddEdge(NewEdge("e"+string(rune('0'+i)), prev, next))
			prev = next
		}
		if len(h.Edges) == 0 {
			return true
		}
		jt, ok := GYO(h)
		if !ok {
			return true // only test acyclic instances
		}
		jt.Reroot(int(pick) % len(jt.Nodes))
		return jt.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
