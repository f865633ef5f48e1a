package prefix

import (
	"fmt"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// SetAnswer is one answer (ā, Ā): values for the free first-order
// variables and bit vectors (over the active domain, in bitIndex order) for
// the free set variables.
type SetAnswer struct {
	FO   map[string]database.Value
	Sets map[string][]bool
	// Delta is the number of output positions that changed relative to the
	// previous answer — the "delta-delay" measure of Theorem 5.5: the
	// algorithm maintains the current answer on an output tape and only
	// rewrites the changed cells.
	Delta int
}

// SetEnum enumerates SetAnswers.
type SetEnum interface {
	Next() (*SetAnswer, bool)
}

// CollectSetAnswers drains a SetEnum.
func CollectSetAnswers(e SetEnum) []*SetAnswer {
	var out []*SetAnswer
	for {
		a, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// EnumerateSigma0 enumerates the answers of a quantifier-free formula
// φ(x̄,X̄) with constant delta-delay (Theorem 5.5): within a block (fixed ā
// and fixed satisfying assignment of the constrained membership bits) the
// unconstrained bits are walked in Gray-code order starting from their
// current values, so consecutive answers differ in one bit; block
// transitions rewrite at most ‖φ‖ + |x̄| cells.
func EnumerateSigma0(db *database.Database, f logic.Formula, c *delay.Counter) (SetEnum, error) {
	cls, _, matrix, err := Classify(f)
	if err != nil {
		return nil, err
	}
	if cls.K != 0 {
		return nil, fmt.Errorf("prefix: EnumerateSigma0 needs a Σ0 formula, got %s", cls)
	}
	sets := logic.FreeSetVars(f)
	fo := logic.FreeVars(f)
	bi := newBitIndex(db, sets)

	// Precompute the blocks: (ā, satisfying point mask, free positions).
	type block struct {
		asg    logic.Assignment
		points [][2]interface{}
		mask   int
		free   []int // bit positions not constrained
	}
	var blocks []block
	err = forEachFO(db, fo, func(asg logic.Assignment) error {
		points := membershipPoints(matrix, asg)
		m := len(points)
		if m > 24 {
			return fmt.Errorf("prefix: too many membership points (%d)", m)
		}
		constrained := map[int]bool{}
		for _, p := range points {
			val := p[1].(database.Value)
			if _, ok := bi.pos[val]; ok {
				constrained[bi.bit(bi.setIdx(p[0].(string)), val)] = true
			}
		}
		var free []int
		for b := 0; b < bi.total(); b++ {
			if !constrained[b] {
				free = append(free, b)
			}
		}
		cp := logic.Assignment{}
		for k, v := range asg {
			cp[k] = v
		}
		for mask := 0; mask < 1<<m; mask++ {
			ok, err := evalQF(db, matrix, cp, pointOracle(points, mask))
			if err != nil {
				return err
			}
			if ok && pointsInDomain(bi, points, mask) {
				blocks = append(blocks, block{asg: cp, points: points, mask: mask, free: free})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	bits := make([]bool, bi.total())
	state := struct {
		bi      int
		started bool
		step    uint64 // Gray position within the block
	}{}
	gray := func(x uint64) uint64 { return x ^ (x >> 1) }

	emit := func(delta int, foAsg logic.Assignment) *SetAnswer {
		a := &SetAnswer{FO: map[string]database.Value{}, Sets: map[string][]bool{}, Delta: delta}
		for _, v := range fo {
			a.FO[v] = foAsg[v]
		}
		n := len(bi.dom)
		for si, s := range bi.sets {
			vec := make([]bool, n)
			copy(vec, bits[si*n:(si+1)*n])
			a.Sets[s] = vec
		}
		return a
	}

	return setEnumFunc(func() (*SetAnswer, bool) {
		for state.bi < len(blocks) {
			b := blocks[state.bi]
			if !state.started {
				state.started = true
				state.step = 0
				// Enter the block: set constrained bits per the mask.
				delta := 0
				for i, p := range b.points {
					val := p[1].(database.Value)
					if _, ok := bi.pos[val]; !ok {
						continue
					}
					pos := bi.bit(bi.setIdx(p[0].(string)), val)
					want := b.mask&(1<<i) != 0
					if bits[pos] != want {
						bits[pos] = want
						delta++
					}
					c.Tick(1)
				}
				return emit(delta+len(fo), b.asg), true
			}
			state.step++
			if len(b.free) >= 63 {
				panic("prefix: too many free bits to enumerate")
			}
			if state.step >= 1<<uint(len(b.free)) {
				state.bi++
				state.started = false
				continue
			}
			// Flip the single bit where gray(step) differs from
			// gray(step−1).
			diff := gray(state.step) ^ gray(state.step-1)
			pos := 0
			for diff>>1 != 0 {
				diff >>= 1
				pos++
			}
			p := b.free[pos]
			bits[p] = !bits[p]
			c.Tick(1)
			return emit(1, b.asg), true
		}
		return nil, false
	}), nil
}

type setEnumFunc func() (*SetAnswer, bool)

func (f setEnumFunc) Next() (*SetAnswer, bool) { return f() }

// EnumerateSigma1 enumerates {Ā : D ⊨ ∃x̄ matrix} with polynomial delay by
// flashlight (binary partition) search over the membership bits: a partial
// bit assignment is extended only if some witness x̄ and some completion of
// the constrained bits remain compatible — a polynomial test for Σ₁.
func EnumerateSigma1(db *database.Database, f logic.Formula, c *delay.Counter) (SetEnum, error) {
	cubes, B, err := Sigma1Cubes(db, f)
	if err != nil {
		return nil, err
	}
	sets := logic.FreeSetVars(f)
	bi := newBitIndex(db, sets)
	// extendable reports whether some cube is compatible with the first p
	// fixed bits.
	extendable := func(bits []bool, p int) bool {
		for _, cu := range cubes {
			ok := true
			for pos, v := range cu.Fixed {
				if pos < p && bits[pos] != v {
					ok = false
					break
				}
			}
			c.Tick(1)
			if ok {
				return true
			}
		}
		return false
	}
	bits := make([]bool, B)
	// DFS stack: position p, next branch to try (0, 1, or 2 = exhausted).
	type frame struct {
		branch int
	}
	stack := make([]frame, 0, B+1)
	started := false
	dead := len(cubes) == 0

	emit := func() *SetAnswer {
		a := &SetAnswer{Sets: map[string][]bool{}, FO: map[string]database.Value{}}
		n := len(bi.dom)
		for si, s := range bi.sets {
			vec := make([]bool, n)
			copy(vec, bits[si*n:(si+1)*n])
			a.Sets[s] = vec
		}
		return a
	}

	descend := func() bool {
		// From the current stack depth, extend greedily to depth B.
		for len(stack) < B {
			p := len(stack)
			bits[p] = false
			if extendable(bits, p+1) {
				stack = append(stack, frame{branch: 0})
				continue
			}
			bits[p] = true
			if extendable(bits, p+1) {
				stack = append(stack, frame{branch: 1})
				continue
			}
			return false
		}
		return true
	}
	backtrackAdvance := func() bool {
		for len(stack) > 0 {
			p := len(stack) - 1
			fr := stack[p]
			stack = stack[:p]
			if fr.branch == 0 {
				bits[p] = true
				if extendable(bits, p+1) {
					stack = append(stack, frame{branch: 1})
					if descend() {
						return true
					}
					// descend failed: continue backtracking
					continue
				}
			}
		}
		return false
	}

	return setEnumFunc(func() (*SetAnswer, bool) {
		if dead {
			return nil, false
		}
		if !started {
			started = true
			if !descend() {
				dead = true
				return nil, false
			}
			return emit(), true
		}
		if !backtrackAdvance() {
			dead = true
			return nil, false
		}
		return emit(), true
	}), nil
}
