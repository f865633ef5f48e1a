package main

import "fmt"

// The oracle: expected answer counts, an order-independent checksum and a
// membership test for every statement shape the workloads send, computed
// with plain Go maps over the generated rows. It shares no code with
// internal/plan or internal/cq, so an engine bug cannot hide in both sides
// of a check.

type shape int

const (
	shapeFC2    shape = iota // Q(x,y) :- E(x,y), L(y).
	shapePath3               // Q(x,y,z) :- E(x,y), E(y,z).
	shapeMM                  // Q(x,z) :- E(x,y), E(y,z).
	shapeNeq2                // Q(x,y) :- E(x,y), L(y), x != y.
	shapeChain3              // S(x0) :- E(x0,x1), E(x1,x2), L(x2).
)

var shapeNames = [...]string{"fc2", "path3", "mm", "neq2", "chain3"}

func (s shape) String() string { return shapeNames[s] }

// text renders the statement over pair p with the given head name.
func (s shape) text(head string, p pair) string {
	switch s {
	case shapeFC2:
		return fmt.Sprintf("%s(x,y) :- %s(x,y), %s(y).", head, p.edge, p.label)
	case shapePath3:
		return fmt.Sprintf("%s(x,y,z) :- %s(x,y), %s(y,z).", head, p.edge, p.edge)
	case shapeMM:
		return fmt.Sprintf("%s(x,z) :- %s(x,y), %s(y,z).", head, p.edge, p.edge)
	case shapeNeq2:
		return fmt.Sprintf("%s(x,y) :- %s(x,y), %s(y), x != y.", head, p.edge, p.label)
	default:
		return fmt.Sprintf("%s(x0) :- %s(x0,x1), %s(x1,x2), %s(x2).", head, p.edge, p.edge, p.label)
	}
}

// tupleHash mixes one answer into 64 bits; a checksum is the wrapping sum
// of the hashes, so it does not depend on enumeration order.
func tupleHash(t []int64) uint64 {
	h := uint64(len(t)) * 0x9e3779b97f4a7c15
	for _, v := range t {
		h ^= uint64(v)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// pairData indexes one edge/label pair for the oracle.
type pairData struct {
	edges   [][]int64
	out     map[int64][]int64
	edgeSet map[[2]int64]bool
	label   map[int64]bool
}

func newPairData(edges, labels [][]int64) *pairData {
	pd := &pairData{
		edges:   edges,
		out:     make(map[int64][]int64),
		edgeSet: make(map[[2]int64]bool, len(edges)),
		label:   make(map[int64]bool, len(labels)),
	}
	for _, e := range edges {
		pd.out[e[0]] = append(pd.out[e[0]], e[1])
		pd.edgeSet[[2]int64{e[0], e[1]}] = true
	}
	for _, l := range labels {
		pd.label[l[0]] = true
	}
	return pd
}

// expect is what a correct server returns for one statement.
type expect struct {
	arity  int
	count  int64
	sum    uint64
	member func(t []int64) bool
}

func (pd *pairData) expect(s shape) expect {
	var ex expect
	add := func(t ...int64) {
		ex.count++
		ex.sum += tupleHash(t)
	}
	switch s {
	case shapeFC2, shapeNeq2:
		neq := s == shapeNeq2
		ex.arity = 2
		for _, e := range pd.edges {
			if pd.label[e[1]] && !(neq && e[0] == e[1]) {
				add(e[0], e[1])
			}
		}
		ex.member = func(t []int64) bool {
			return pd.edgeSet[[2]int64{t[0], t[1]}] && pd.label[t[1]] && !(neq && t[0] == t[1])
		}
	case shapePath3:
		ex.arity = 3
		for _, e := range pd.edges {
			for _, z := range pd.out[e[1]] {
				add(e[0], e[1], z)
			}
		}
		ex.member = func(t []int64) bool {
			return pd.edgeSet[[2]int64{t[0], t[1]}] && pd.edgeSet[[2]int64{t[1], t[2]}]
		}
	case shapeMM:
		ex.arity = 2
		seen := make(map[[2]int64]bool)
		for _, e := range pd.edges {
			for _, z := range pd.out[e[1]] {
				if k := [2]int64{e[0], z}; !seen[k] {
					seen[k] = true
					add(e[0], z)
				}
			}
		}
		ex.member = func(t []int64) bool { return seen[[2]int64{t[0], t[1]}] }
	case shapeChain3:
		ex.arity = 1
		// reach[x1]: some edge (x1,x2) ends in a label.
		reach := make(map[int64]bool)
		for _, e := range pd.edges {
			if pd.label[e[1]] {
				reach[e[0]] = true
			}
		}
		seen := make(map[int64]bool)
		for _, e := range pd.edges {
			if reach[e[1]] && !seen[e[0]] {
				seen[e[0]] = true
				add(e[0])
			}
		}
		ex.member = func(t []int64) bool { return seen[t[0]] }
	}
	return ex
}
