package hypergraph

import (
	"math/rand"
	"testing"
)

func TestEdgeBasics(t *testing.T) {
	e := NewEdge("R", "y", "x", "y")
	if len(e.Vertices) != 2 || e.Vertices[0] != "x" || e.Vertices[1] != "y" {
		t.Fatalf("NewEdge dedup/sort failed: %v", e.Vertices)
	}
	if !e.Has("x") || e.Has("z") {
		t.Errorf("Has wrong")
	}
	f := NewEdge("S", "x", "y", "z")
	if got := e.Intersect(f); len(got) != 2 {
		t.Errorf("Intersect wrong: %v", got)
	}
	if got := e.Minus(map[string]bool{"x": true}); len(got) != 1 || got[0] != "y" {
		t.Errorf("Minus wrong: %v", got)
	}
	if e.String() != "R{x,y}" {
		t.Errorf("String = %q", e.String())
	}
}

// Example 4.1: the path query is acyclic, the triangle is not, the triangle
// plus a covering ternary atom is acyclic again.
func TestExample41(t *testing.T) {
	path := New()
	path.AddEdge(NewEdge("E1", "x", "y"))
	path.AddEdge(NewEdge("E2", "y", "z"))
	if !IsAcyclic(path) {
		t.Errorf("path query must be acyclic")
	}

	tri := New()
	tri.AddEdge(NewEdge("E1", "x", "y"))
	tri.AddEdge(NewEdge("E2", "y", "z"))
	tri.AddEdge(NewEdge("E3", "z", "x"))
	if IsAcyclic(tri) {
		t.Errorf("triangle query must be cyclic")
	}

	tri.AddEdge(NewEdge("T", "x", "y", "z"))
	jt, ok := GYO(tri)
	if !ok {
		t.Fatalf("triangle+cover must be acyclic")
	}
	if err := jt.Validate(); err != nil {
		t.Fatalf("join tree invalid: %v", err)
	}
	// The paper: join tree with root {x,y,z} and the three binary atoms as
	// children. Our GYO may root differently, but T must be the neighbour
	// of all three.
	for i, e := range jt.Nodes {
		if e.Name == "T" {
			continue
		}
		p := jt.Parent[i]
		if p == -1 || jt.Nodes[p].Name != "T" {
			// e's parent must be T, or e is the root and T its child.
			if !(jt.Parent[i] == -1) {
				t.Errorf("edge %s should neighbour T in the join tree:\n%s", e.Name, jt)
			}
		}
	}
}

// Example 4.5: φ(x,y) = ∃w∃z E(x,w) ∧ E(y,z) ∧ B(z) is free-connex; the
// Boolean matrix multiplication query Π(x,y) = ∃z A(x,z) ∧ B(z,y) is acyclic
// but not free-connex.
func TestExample45FreeConnex(t *testing.T) {
	h := New()
	h.AddEdge(NewEdge("E1", "x", "w"))
	h.AddEdge(NewEdge("E2", "y", "z"))
	h.AddEdge(NewEdge("B", "z"))
	if !IsAcyclic(h) {
		t.Fatalf("Example 4.5 query must be acyclic")
	}
	if !FreeConnex(h, []string{"x", "y"}) {
		t.Errorf("Example 4.5 query must be free-connex")
	}

	pi := New()
	pi.AddEdge(NewEdge("A", "x", "z"))
	pi.AddEdge(NewEdge("B", "z", "y"))
	if !IsAcyclic(pi) {
		t.Fatalf("Π must be acyclic")
	}
	if FreeConnex(pi, []string{"x", "y"}) {
		t.Errorf("Π must not be free-connex")
	}
	// Boolean queries are free-connex by definition.
	if !FreeConnex(pi, nil) {
		t.Errorf("Boolean queries are free-connex by definition")
	}
	// Queries with one free variable are free-connex (Section 4.1.1).
	if !FreeConnex(pi, []string{"x"}) {
		t.Errorf("unary queries are free-connex by definition")
	}
}

// E7 / Figure 1: the query φ(x) ≡ ∃y R(x1,x2) ∧ S(x2,x3,y3) ∧ R(x1,y1) ∧
// T(y3,y4,y5) ∧ S(x2,y2) with free variables {x1,x2,x3} is free-connex; the
// added hyperedge S'{x2,x3} yields a join tree whose free-variable nodes
// form a connected subtree containing the root.
func TestFigure1JoinTree(t *testing.T) {
	h := New()
	h.AddEdge(NewEdge("R1", "x1", "x2"))
	h.AddEdge(NewEdge("S1", "x2", "x3", "y3"))
	h.AddEdge(NewEdge("R2", "x1", "y1"))
	h.AddEdge(NewEdge("T", "y3", "y4", "y5"))
	h.AddEdge(NewEdge("S2", "x2", "y2"))

	free := []string{"x1", "x2", "x3"}
	if !IsAcyclic(h) {
		t.Fatalf("Figure 1 query must be acyclic")
	}
	if !FreeConnex(h, free) {
		t.Fatalf("Figure 1 query must be free-connex")
	}
	if got := QuantifiedStarSize(h, free); got != 1 {
		t.Errorf("Figure 1 query: star size = %d, want 1 (free-connex)", got)
	}

	// Reproduce the construction: add S'{x2,x3} ⊆ S1 and build a join tree.
	h2 := h.Clone()
	h2.AddEdge(NewEdge("S'", "x2", "x3"))
	jt, ok := GYO(h2)
	if !ok {
		t.Fatalf("extended Figure 1 hypergraph must be acyclic")
	}
	if err := jt.Validate(); err != nil {
		t.Fatalf("join tree invalid: %v\n%s", err, jt)
	}
}

// fig23 builds a hypergraph realizing the properties of Figures 2–3 and
// Examples 4.24/4.27: vertices x1..x9, y1..y7, S = {y1..y7}, exactly three
// S-components, and the central component's maximum independent set is
// {y3,y5,y6}, of size 3. (The paper gives the hypergraph only pictorially;
// this is a reconstruction with the same stated properties.)
func fig23() (*Hypergraph, map[string]bool) {
	h := New()
	// Component 1 (outside-S vertices x1,x2).
	h.AddEdge(NewEdge("A1", "y1", "x1"))
	h.AddEdge(NewEdge("A2", "x1", "x2", "y2"))
	// Component 2, the central one (outside-S vertices x3,x4,x6,x7,x8).
	h.AddEdge(NewEdge("B1", "y3", "x3", "x6"))
	h.AddEdge(NewEdge("B2", "x4", "x6", "x7", "y4", "y3"))
	h.AddEdge(NewEdge("B3", "x7", "y4", "y5", "x8"))
	h.AddEdge(NewEdge("B4", "x8", "y6"))
	// Component 3 (outside-S vertices x5,x9).
	h.AddEdge(NewEdge("C1", "y6", "x5", "y7"))
	h.AddEdge(NewEdge("C2", "x5", "x9"))

	s := map[string]bool{}
	for _, v := range []string{"y1", "y2", "y3", "y4", "y5", "y6", "y7"} {
		s[v] = true
	}
	return h, s
}

// E8 / Figures 2–3, Examples 4.24 and 4.27.
func TestFigure23StarSize(t *testing.T) {
	h, s := fig23()
	comps := SComponents(h, s)
	if len(comps) != 3 {
		t.Fatalf("want 3 S-components, got %d: %v", len(comps), comps)
	}
	// The central component is the one containing edge B1.
	var central *SComponent
	for i := range comps {
		for _, ei := range comps[i].EdgeIdx {
			if h.Edges[ei].Name == "B1" {
				central = &comps[i]
			}
		}
	}
	if central == nil {
		t.Fatalf("central component not found")
	}
	if got := len(central.EdgeIdx); got != 4 {
		t.Errorf("central component: want 4 edges, got %d", got)
	}
	ind := central.IndependentSVertices(h, s)
	if len(ind) != 3 || ind[0] != "y3" || ind[1] != "y5" || ind[2] != "y6" {
		t.Errorf("central independent set: want [y3 y5 y6], got %v", ind)
	}
	if got := SStarSize(h, s); got != 3 {
		t.Errorf("S-star size: want 3, got %d", got)
	}
}

// The star query ψ of Equation 2 has quantified star size n (Example 4.27).
func TestEquation2StarSize(t *testing.T) {
	for n := 1; n <= 5; n++ {
		h := New()
		var free []string
		for i := 0; i < n; i++ {
			x := "x" + string(rune('0'+i))
			free = append(free, x)
			h.AddEdge(NewEdge("E"+x, "t", x))
		}
		if got := QuantifiedStarSize(h, free); got != n {
			t.Errorf("n=%d: star size = %d, want %d", n, got, n)
		}
	}
}

func TestBetaAcyclicity(t *testing.T) {
	// α-acyclic but not β-acyclic: triangle covered by a ternary edge.
	h := New()
	h.AddEdge(NewEdge("T", "a", "b", "c"))
	h.AddEdge(NewEdge("E1", "a", "b"))
	h.AddEdge(NewEdge("E2", "b", "c"))
	h.AddEdge(NewEdge("E3", "a", "c"))
	if !IsAcyclic(h) {
		t.Fatalf("covered triangle must be α-acyclic")
	}
	if IsBetaAcyclic(h) {
		t.Errorf("covered triangle must not be β-acyclic")
	}

	// A chain of edges is β-acyclic.
	chain := New()
	chain.AddEdge(NewEdge("E1", "a", "b"))
	chain.AddEdge(NewEdge("E2", "b", "c"))
	chain.AddEdge(NewEdge("E3", "c", "d"))
	order, ok := NestPointOrder(chain)
	if !ok {
		t.Fatalf("chain must be β-acyclic")
	}
	if len(order) != 4 {
		t.Errorf("elimination order should cover all vertices: %v", order)
	}
}

func TestJoinTreeValidateRejectsBadTree(t *testing.T) {
	// x occurs in nodes 0 and 2 but not in the middle node 1.
	bad := &JoinTree{
		Nodes:  []Edge{NewEdge("A", "x", "y"), NewEdge("B", "y", "z"), NewEdge("C", "z", "x")},
		Parent: []int{-1, 0, 1},
	}
	if err := bad.Validate(); err == nil {
		t.Errorf("Validate should reject a tree violating running intersection")
	}
	twoRoots := &JoinTree{
		Nodes:  []Edge{NewEdge("A", "x"), NewEdge("B", "x")},
		Parent: []int{-1, -1},
	}
	if err := twoRoots.Validate(); err == nil {
		t.Errorf("Validate should reject a forest")
	}
}

// randomHypergraph generates a small random hypergraph over vertices v0..v5.
func randomHypergraph(rng *rand.Rand, maxEdges int) *Hypergraph {
	h := New()
	verts := []string{"v0", "v1", "v2", "v3", "v4", "v5"}
	m := 1 + rng.Intn(maxEdges)
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(3)
		var vs []string
		for j := 0; j < k; j++ {
			vs = append(vs, verts[rng.Intn(len(verts))])
		}
		h.AddEdge(NewEdge("e"+string(rune('0'+i)), vs...))
	}
	return h
}

// bruteForceAcyclic searches all rooted labeled trees over the edges for one
// satisfying running intersection (feasible for ≤ 5 edges).
func bruteForceAcyclic(h *Hypergraph) bool {
	n := len(h.Edges)
	if n <= 1 {
		return true
	}
	// Enumerate parent vectors: parent[i] in {-1, 0..n-1}, exactly one -1,
	// acyclic. n ≤ 5 so at most 6^5 vectors.
	parents := make([]int, n)
	var try func(i int) bool
	try = func(i int) bool {
		if i == n {
			roots := 0
			for _, p := range parents {
				if p == -1 {
					roots++
				}
			}
			if roots != 1 {
				return false
			}
			// check tree (no cycles): walk up from each node
			for j := 0; j < n; j++ {
				seen := map[int]bool{}
				k := j
				for k != -1 {
					if seen[k] {
						return false
					}
					seen[k] = true
					k = parents[k]
				}
			}
			jt := &JoinTree{Nodes: h.Edges, Parent: append([]int(nil), parents...)}
			return jt.Validate() == nil
		}
		for p := -1; p < n; p++ {
			if p == i {
				continue
			}
			parents[i] = p
			if try(i + 1) {
				return true
			}
		}
		return false
	}
	return try(0)
}

// GYO must agree with brute-force join-tree search on small hypergraphs.
func TestGYOAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := randomHypergraph(rng, 4)
		jt, ok := GYO(h.Clone())
		want := bruteForceAcyclic(h)
		if ok != want {
			t.Fatalf("trial %d: GYO=%v brute=%v for %v", trial, ok, want, h.Edges)
		}
		if ok {
			if err := jt.Validate(); err != nil {
				t.Fatalf("trial %d: GYO produced invalid tree: %v", trial, err)
			}
		}
	}
}

// β-acyclicity implies α-acyclicity, and is preserved by edge deletion.
func TestBetaImpliesAlphaAndHereditary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		h := randomHypergraph(rng, 5)
		if IsBetaAcyclic(h) {
			if !IsAcyclic(h) {
				t.Fatalf("β-acyclic but not α-acyclic: %v", h.Edges)
			}
			// Hereditary: delete a random edge, must stay β-acyclic.
			if len(h.Edges) > 1 {
				h2 := New()
				skip := rng.Intn(len(h.Edges))
				for i, e := range h.Edges {
					if i != skip {
						h2.AddEdge(e)
					}
				}
				if !IsBetaAcyclic(h2) {
					t.Fatalf("β-acyclicity not hereditary: %v minus %d", h.Edges, skip)
				}
			}
		}
	}
}

// Star size 1 ⇔ free-connex (Section 4.4: "being of quantified star size 1
// is equivalent to being free-connex"), on random acyclic hypergraphs.
func TestStarSizeOneIffFreeConnex(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for trial := 0; trial < 2000 && checked < 300; trial++ {
		h := randomHypergraph(rng, 4)
		if !IsAcyclic(h) {
			continue
		}
		verts := h.Vertices()
		var free []string
		for _, v := range verts {
			if rng.Intn(2) == 0 {
				free = append(free, v)
			}
		}
		checked++
		fc := FreeConnex(h, free)
		ss := QuantifiedStarSize(h, free)
		if fc != (ss == 1) {
			t.Fatalf("free-connex=%v but star size=%d for %v free=%v", fc, ss, h.Edges, free)
		}
	}
	if checked < 100 {
		t.Fatalf("too few acyclic samples: %d", checked)
	}
}

func TestSComponentsIgnoreEdgesInsideS(t *testing.T) {
	h := New()
	h.AddEdge(NewEdge("F", "y1", "y2")) // fully inside S
	h.AddEdge(NewEdge("G", "y1", "x1"))
	s := map[string]bool{"y1": true, "y2": true}
	comps := SComponents(h, s)
	if len(comps) != 1 || len(comps[0].EdgeIdx) != 1 || h.Edges[comps[0].EdgeIdx[0]].Name != "G" {
		t.Errorf("edges inside S must not form components: %v", comps)
	}
}

func TestVerticesAndIsolated(t *testing.T) {
	h := New()
	h.AddEdge(NewEdge("E", "b", "a"))
	h.AddVertex("z")
	vs := h.Vertices()
	if len(vs) != 3 || vs[0] != "a" || vs[2] != "z" {
		t.Errorf("Vertices = %v", vs)
	}
}

func TestJoinTreeString(t *testing.T) {
	h := New()
	h.AddEdge(NewEdge("A", "x", "y"))
	h.AddEdge(NewEdge("B", "y", "z"))
	jt, ok := GYO(h)
	if !ok {
		t.Fatal("chain must be acyclic")
	}
	if jt.String() == "" {
		t.Errorf("String should render the tree")
	}
	if jt.Root() < 0 {
		t.Errorf("Root not found")
	}
}
