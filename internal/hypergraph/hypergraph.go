// Package hypergraph implements the hypergraph machinery of Section 4 of the
// paper: query hypergraphs, join trees and the GYO ear-removal algorithm
// (α-acyclicity, Section 4.1), β-acyclicity via nest-point elimination
// (Section 4.5), S-components and the quantified star size of Durand–Mengel
// (Section 4.4, Definitions 4.23–4.26), and the free-connex test
// (Definition 4.4).
package hypergraph

import (
	"fmt"
	"sort"
	"strings"
)

// Edge is a named hyperedge: a set of vertices. Vertices is kept sorted and
// duplicate-free.
type Edge struct {
	Name     string
	Vertices []string
}

// NewEdge builds an edge, sorting and deduplicating the vertex list.
func NewEdge(name string, vertices ...string) Edge {
	vs := append([]string(nil), vertices...)
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return Edge{Name: name, Vertices: out}
}

// Has reports whether v is a vertex of e.
func (e Edge) Has(v string) bool {
	i := sort.SearchStrings(e.Vertices, v)
	return i < len(e.Vertices) && e.Vertices[i] == v
}

// Minus returns the vertices of e not in the given set.
func (e Edge) Minus(set map[string]bool) []string {
	var out []string
	for _, v := range e.Vertices {
		if !set[v] {
			out = append(out, v)
		}
	}
	return out
}

// Intersect returns the vertices common to e and f.
func (e Edge) Intersect(f Edge) []string {
	var out []string
	for _, v := range e.Vertices {
		if f.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// String renders the edge as "Name{v1,v2}".
func (e Edge) String() string {
	return e.Name + "{" + strings.Join(e.Vertices, ",") + "}"
}

// Hypergraph is a finite hypergraph H = (V, E) (Section 4). The vertex set
// is implicit: the union of all edge vertex sets plus any isolated vertices
// added explicitly.
type Hypergraph struct {
	Edges    []Edge
	isolated []string
}

// New creates an empty hypergraph.
func New() *Hypergraph { return &Hypergraph{} }

// AddEdge appends an edge. Edge names should be unique; they identify query
// atoms.
func (h *Hypergraph) AddEdge(e Edge) { h.Edges = append(h.Edges, e) }

// AddVertex records an isolated vertex (one that may appear in no edge).
func (h *Hypergraph) AddVertex(v string) { h.isolated = append(h.isolated, v) }

// Vertices returns the sorted vertex set.
func (h *Hypergraph) Vertices() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, e := range h.Edges {
		for _, v := range e.Vertices {
			add(v)
		}
	}
	for _, v := range h.isolated {
		add(v)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy.
func (h *Hypergraph) Clone() *Hypergraph {
	c := New()
	for _, e := range h.Edges {
		c.AddEdge(NewEdge(e.Name, e.Vertices...))
	}
	c.isolated = append([]string(nil), h.isolated...)
	return c
}

// JoinTree is a join tree of a hypergraph (Section 4.1): its nodes are the
// hyperedges, and for every vertex v the set of nodes containing v induces a
// connected subtree (the running-intersection property).
type JoinTree struct {
	Nodes  []Edge
	Parent []int // Parent[i] = index of parent node, -1 for the root
}

// Root returns the index of the root node.
func (t *JoinTree) Root() int {
	for i, p := range t.Parent {
		if p == -1 {
			return i
		}
	}
	return -1
}

// Children returns, for each node, the indices of its children.
func (t *JoinTree) Children() [][]int {
	ch := make([][]int, len(t.Nodes))
	for i, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// Validate checks the running-intersection property: for each vertex, the
// nodes containing it form a connected subtree.
func (t *JoinTree) Validate() error {
	if len(t.Nodes) == 0 {
		return nil
	}
	roots := 0
	for _, p := range t.Parent {
		if p == -1 {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("hypergraph: join tree has %d roots", roots)
	}
	// Collect vertices.
	verts := make(map[string][]int)
	for i, e := range t.Nodes {
		for _, v := range e.Vertices {
			verts[v] = append(verts[v], i)
		}
	}
	// For each vertex, the occurrence set must be connected in the tree:
	// walking up from any occurrence, the path to the "highest" occurrence
	// must stay within occurrences.
	for v, occ := range verts {
		in := make(map[int]bool, len(occ))
		for _, i := range occ {
			in[i] = true
		}
		// depth of each node
		depth := func(i int) int {
			d := 0
			for t.Parent[i] != -1 {
				i = t.Parent[i]
				d++
			}
			return d
		}
		// highest occurrence = min depth
		top, topd := occ[0], depth(occ[0])
		for _, i := range occ[1:] {
			if d := depth(i); d < topd {
				top, topd = i, d
			}
		}
		for _, i := range occ {
			for i != top {
				p := t.Parent[i]
				if p == -1 || !in[p] {
					return fmt.Errorf("hypergraph: vertex %q occurrence set not connected", v)
				}
				i = p
			}
		}
	}
	return nil
}

// String renders the tree as an indented outline, children sorted by name.
func (t *JoinTree) String() string {
	var b strings.Builder
	ch := t.Children()
	for i := range ch {
		sort.Slice(ch[i], func(a, b int) bool { return t.Nodes[ch[i][a]].Name < t.Nodes[ch[i][b]].Name })
	}
	var rec func(i, depth int)
	rec = func(i, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(t.Nodes[i].String())
		b.WriteByte('\n')
		for _, c := range ch[i] {
			rec(c, depth+1)
		}
	}
	if r := t.Root(); r >= 0 {
		rec(r, 0)
	}
	return b.String()
}

// Reroot reverses parent pointers so that node r becomes the root.
func (t *JoinTree) Reroot(r int) {
	var path []int
	for i := r; i != -1; i = t.Parent[i] {
		path = append(path, i)
	}
	for k := len(path) - 1; k > 0; k-- {
		t.Parent[path[k]] = path[k-1]
	}
	t.Parent[r] = -1
}

// GYO runs the Graham–Yu–Özsoyoğlu ear-removal algorithm. It returns a join
// tree and true iff h is α-acyclic (Section 4.1). Edges that are subsets of
// other edges are attached below a containing edge. An empty hypergraph is
// acyclic with an empty tree.
func GYO(h *Hypergraph) (*JoinTree, bool) {
	n := len(h.Edges)
	if n == 0 {
		return &JoinTree{}, true
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	removed := 0
	for removed < n-1 {
		progress := false
		for i := 0; i < n && removed < n-1; i++ {
			if !alive[i] {
				continue
			}
			// e_i is an ear if the vertices it shares with other alive
			// edges are all contained in a single other alive edge w.
			witness := -1
			shared := sharedVertices(h, alive, i)
			if len(shared) == 0 {
				// Isolated ear: attach to any other alive edge.
				for j := 0; j < n; j++ {
					if j != i && alive[j] {
						witness = j
						break
					}
				}
			} else {
				for j := 0; j < n; j++ {
					if j == i || !alive[j] {
						continue
					}
					if containsAll(h.Edges[j], shared) {
						witness = j
						break
					}
				}
			}
			if witness >= 0 {
				parent[i] = witness
				alive[i] = false
				removed++
				progress = true
			}
		}
		if !progress {
			return nil, false
		}
	}
	return &JoinTree{Nodes: h.Edges, Parent: parent}, true
}

func sharedVertices(h *Hypergraph, alive []bool, i int) []string {
	var out []string
	for _, v := range h.Edges[i].Vertices {
		for j := range h.Edges {
			if j != i && alive[j] && h.Edges[j].Has(v) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func containsAll(e Edge, vs []string) bool {
	for _, v := range vs {
		if !e.Has(v) {
			return false
		}
	}
	return true
}

// IsAcyclic reports α-acyclicity (the query class ACQ, Section 4.1).
func IsAcyclic(h *Hypergraph) bool {
	_, ok := GYO(h)
	return ok
}

// IsBetaAcyclic reports β-acyclicity (Definition 4.29): h and all its
// subhypergraphs are α-acyclic. It uses the nest-point elimination
// characterization ([38], Section 4.5): h is β-acyclic iff repeatedly
// removing nest points (vertices whose incident edges form a chain under ⊆)
// and discarding emptied edges eliminates all vertices.
func IsBetaAcyclic(h *Hypergraph) bool {
	_, ok := NestPointOrder(h)
	return ok
}

// NestPointOrder returns a vertex elimination order witnessing β-acyclicity,
// and false if none exists. The order drives the Davis–Putnam procedure of
// Theorem 4.31.
func NestPointOrder(h *Hypergraph) ([]string, bool) {
	// Work on copies of the edge vertex sets.
	edges := make([]map[string]bool, len(h.Edges))
	for i, e := range h.Edges {
		edges[i] = make(map[string]bool, len(e.Vertices))
		for _, v := range e.Vertices {
			edges[i][v] = true
		}
	}
	remaining := make(map[string]bool)
	for _, v := range h.Vertices() {
		remaining[v] = true
	}
	var order []string
	for len(remaining) > 0 {
		found := ""
		for v := range remaining {
			if isNestPoint(edges, v) {
				if found == "" || v < found { // deterministic choice
					found = v
				}
			}
		}
		if found == "" {
			return nil, false
		}
		order = append(order, found)
		delete(remaining, found)
		for i := range edges {
			delete(edges[i], found)
		}
	}
	return order, true
}

// isNestPoint reports whether the nonempty edges containing v form a chain
// under ⊆.
func isNestPoint(edges []map[string]bool, v string) bool {
	var inc []map[string]bool
	for _, e := range edges {
		if e[v] {
			inc = append(inc, e)
		}
	}
	sort.Slice(inc, func(i, j int) bool { return len(inc[i]) < len(inc[j]) })
	for i := 0; i+1 < len(inc); i++ {
		if !subset(inc[i], inc[i+1]) {
			return false
		}
	}
	return true
}

func subset(a, b map[string]bool) bool {
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}
