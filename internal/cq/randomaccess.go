package cq

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// Counting, random access and page seeks read one structure: the bound
// OdometerCore. After the Theorem 4.6 preprocessing φ(D) is the full join
// of the core's reduced parts arranged in a join tree, and the odometer
// enumerates it in preorder-lexicographic order of its cursors. One
// counting pass over the same slabs and probe indexes gives, for every row,
// the number of answers of its subtree; |φ(D)| is then the root bucket's
// total (Theorem 4.21 read off the reduced tree), and answer i is found by
// descending the tree with one prefix-sum search per position — the "random
// access" extension of [23] mentioned in Section 4.3 of the paper — in the
// odometer's own order by construction, so a cursor placed at i continues
// with constant delay.

// ErrCountOverflow reports that a query has more answers than a uint64
// holds, so no SpineWeights — and with it no random access or seek — exists
// for the core. Counting falls back to an arbitrary-precision engine and
// pagination to skipping.
var ErrCountOverflow = errors.New("cq: answer count overflows uint64")

// SpineWeights is the counting pass over one OdometerCore. It is immutable
// and indexed by slab row id, so Index compaction (which relocates bucket
// storage but keeps ids and in-bucket order) leaves it valid, and the
// tombstones delta deletes leave in the slabs are simply never read. Any
// other change to the core — a delta patch, a slab compaction's rebased
// copy — needs a new pass.
type SpineWeights struct {
	core *OdometerCore
	kids [][]int // kids[j]: positions whose tree parent is j, ascending
	// cum[j][row] is the number of answers of j's subtree summed over the
	// rows of row's bucket up to and including row, in bucket order. Leaf
	// positions keep no array: every row counts once, so the sum is the
	// row's rank in its bucket.
	cum   [][]uint64
	total uint64
}

// NewSpineWeights runs the counting pass over oc: top-down from the root
// bucket, each bucket summed once, in time linear in the rows of the
// non-leaf positions. Like the counting DP it replaces it ticks no steps;
// the work shows as a "count" span on c's sink. It fails with
// ErrCountOverflow when a count does not fit a uint64.
func NewSpineWeights(oc *OdometerCore, c *delay.Counter) (*SpineWeights, error) {
	span := c.StartSpan("count")
	defer span.End()
	m := len(oc.order)
	w := &SpineWeights{core: oc, kids: make([][]int, m), cum: make([][]uint64, m)}
	if !oc.NonEmpty() {
		return w, nil
	}
	for j := 1; j < m; j++ {
		p := oc.parentPos[j]
		w.kids[p] = append(w.kids[p], j)
	}
	for j := range w.kids {
		if len(w.kids[j]) > 0 {
			n := oc.slabs[j].Len()
			if n == 0 {
				n = 1 // an arity-0 part: its one row has id 0 and no slab storage
			}
			w.cum[j] = make([]uint64, n)
		}
	}
	var ok bool
	if w.total, ok = w.sum(0, oc.root); !ok {
		return nil, ErrCountOverflow
	}
	return w, nil
}

// Total returns |φ(D)|.
func (w *SpineWeights) Total() uint64 { return w.total }

// below returns the number of answers below bucket b of position j, once
// sum has filled it.
func (w *SpineWeights) below(j int, b []int32) uint64 {
	if w.cum[j] == nil {
		return uint64(len(b))
	}
	if len(b) == 0 {
		return 0
	}
	return w.cum[j][b[len(b)-1]]
}

// sum is below for the counting pass itself: it fills cum[j] over b on the
// first visit. After full reduction every row extends to an answer, so a
// nonzero sum at the bucket's last row marks the bucket done.
func (w *SpineWeights) sum(j int, b []int32) (uint64, bool) {
	if t := w.below(j, b); t != 0 || w.cum[j] == nil {
		return t, true
	}
	oc := w.core
	var run uint64
	for _, id := range b {
		row := oc.slabs[j].Row(id)
		n := uint64(1)
		for _, k := range w.kids[j] {
			t, ok := w.sum(k, oc.idx[k].Lookup(row, oc.probes[k][1]))
			hi, lo := bits.Mul64(n, t)
			if !ok || hi != 0 {
				return 0, false
			}
			n = lo
		}
		var carry uint64
		if run, carry = bits.Add64(run, n, 0); carry != 0 {
			return 0, false
		}
		w.cum[j][id] = run
	}
	return run, true
}

// locate finds the row of bucket b holding the x-th answer below it: the
// row's index in b and x's offset inside that row's subtree.
func (w *SpineWeights) locate(j int, b []int32, x uint64) (int, uint64) {
	cum := w.cum[j]
	if cum == nil {
		return int(x), 0
	}
	lo, hi := 0, len(b)-1
	for lo < hi {
		if mid := (lo + hi) / 2; cum[b[mid]] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 {
		x -= cum[b[lo-1]]
	}
	return lo, x
}

// Seek places the cursor so that the next Next yields answer i of the
// odometer's order and later calls continue from there at constant delay.
// It reports false, leaving the cursor exhausted, when i ≥ w.Total(). The
// cost is one bucket lookup and one binary search per spine position; like
// reinit it ticks one step per position. w must be the weights of the
// cursor's core. Seek allocates only on a cursor's first call.
func (od *Odometer) Seek(w *SpineWeights, i uint64) bool {
	o := od.o
	oc := o.core
	if w.core != oc {
		panic("cq: Seek with the weights of another core")
	}
	o.started, o.placed, o.dead = false, true, i >= w.total
	if o.dead {
		return false
	}
	if o.digit == nil {
		o.digit = make([]uint64, len(oc.order))
	}
	o.buckets[0], o.digit[0] = oc.root, i
	for j := range oc.order {
		t, rem := w.locate(j, o.buckets[j], o.digit[j])
		o.cursors[j] = t
		o.c.Tick(1)
		// rem is a mixed-radix number over the children's buckets, the
		// first child the most significant digit.
		kids := w.kids[j]
		if len(kids) == 0 {
			continue
		}
		row := o.row(j, t)
		for _, k := range kids {
			o.buckets[k] = oc.idx[k].Lookup(row, oc.probes[k][1])
		}
		for n := len(kids) - 1; n > 0; n-- {
			k := kids[n]
			radix := w.below(k, o.buckets[k])
			o.digit[k], rem = rem%radix, rem/radix
		}
		o.digit[kids[0]] = rem
	}
	return true
}

// RandomAccess gives O(‖φ‖·log‖D‖)-time access to the i-th answer of a
// free-connex acyclic conjunctive query, in the constant-delay
// enumerator's order: a thin view over a bound core and its weights that
// owns one cursor. A handle is for one goroutine at a time; any number of
// handles share a core and its weights.
type RandomAccess struct {
	w   *SpineWeights
	cur *Odometer
}

// RandomAccess returns a handle over the core and its weights; the handle's
// cursor ticks c.
func (oc *OdometerCore) RandomAccess(w *SpineWeights, c *delay.Counter) *RandomAccess {
	return &RandomAccess{w: w, cur: oc.Cursor(c)}
}

// NewRandomAccess runs the constant-delay preprocessing and the counting
// pass for a free-connex acyclic conjunctive query. It fails with
// ErrCountOverflow when the query has 2⁶⁴ answers or more.
func NewRandomAccess(db *database.Database, q *logic.CQ) (*RandomAccess, error) {
	oc, err := PrepareConstantDelay(db, q, nil)
	if err != nil {
		return nil, err
	}
	w, err := NewSpineWeights(oc, nil)
	if err != nil {
		return nil, err
	}
	return oc.RandomAccess(w, nil), nil
}

// Count returns |φ(D)|, computed by the counting pass — this doubles as a
// counting algorithm for free-connex queries.
func (ra *RandomAccess) Count() *big.Int { return new(big.Int).SetUint64(ra.w.total) }

// Get returns the i-th answer (0-based). See GetInt.
func (ra *RandomAccess) Get(i *big.Int) (database.Tuple, error) {
	if !i.IsUint64() {
		return nil, ra.outOfRange(i)
	}
	return ra.get(i.Uint64())
}

// GetInt returns the i-th answer (0-based) at a cost of O(‖φ‖·log‖D‖): one
// prefix-sum search per spine position. The tuple is the handle's buffer,
// valid until its next call; warm calls allocate nothing.
func (ra *RandomAccess) GetInt(i int64) (database.Tuple, error) {
	if i < 0 {
		return nil, ra.outOfRange(i)
	}
	return ra.get(uint64(i))
}

func (ra *RandomAccess) get(i uint64) (database.Tuple, error) {
	if !ra.cur.Seek(ra.w, i) {
		return nil, ra.outOfRange(i)
	}
	t, _ := ra.cur.Next()
	return t, nil
}

func (ra *RandomAccess) outOfRange(i interface{}) error {
	return fmt.Errorf("cq: index %v out of range [0, %d)", i, ra.w.total)
}

// RandomOrder returns an enumerator producing every answer exactly once in
// uniformly random order — the random-order enumeration of [23]. It
// requires the answer count to fit in memory as a permutation (≤ 1<<24).
func (ra *RandomAccess) RandomOrder(rng *rand.Rand) (delay.Enumerator, error) {
	if ra.w.total > 1<<24 {
		return nil, fmt.Errorf("cq: %d answers is too many for an in-memory permutation", ra.w.total)
	}
	perm := rng.Perm(int(ra.w.total))
	i := 0
	return delay.Func(func() (database.Tuple, bool) {
		if i >= len(perm) {
			return nil, false
		}
		t, err := ra.get(uint64(perm[i]))
		i++
		return t, err == nil
	}), nil
}
