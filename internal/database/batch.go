package database

// Vectorized batch execution over the columnar slabs.
//
// The scalar probe path (Index.Lookup) hashes one tuple, walks one probe
// chain of the index's flat table, and resolves one key comparison per
// call. The batch kernels in this file share that table and amortize the
// rest across runs of probe rows:
//
//   - Slab.HashCols fingerprints a run of slab rows in one pass over the
//     flat column data — no per-tuple slice-header chase.
//   - A small direct-mapped result cache in the scratch groups probes by
//     fingerprint: runs of equal keys (the common case in semijoins of
//     skewed data) resolve their bucket once and reuse it, with exact
//     probe-key comparison so a degraded hash still answers correctly.
//   - Survivor row ids are compacted branch-free into pooled []int32
//     scratch buffers, so the warm probe path performs zero allocations.
//
// Counted steps are untouched: the delay counters of internal/cq tick per
// intermediate-result tuple, and the batch kernels return exactly the rows
// the scalar path returns, in exactly the same order. The scalar kernels
// (SemijoinScalar, JoinScalar, Index.Lookup) remain in place as the oracle
// for the differential suites.

import (
	"math/bits"
	"sync"
)

// probeBatch is the number of probe rows fingerprinted per inner pass; it
// bounds the scratch's fps buffer so a batch of hashes stays in L1.
const probeBatch = 256

// cacheSlots sizes the direct-mapped bucket-result cache (a power of two).
const cacheSlots = 256

// --- batched fingerprints ---------------------------------------------

// HashCols writes the key fingerprint of each listed row's projection onto
// cols into dst (len(dst) ≥ len(rowIDs)). The fingerprints are bit-
// identical to Tuple.KeyHash on the same projection; the specialized one-
// and two-column loops cover every join the engines emit today.
func (s Slab) HashCols(cols []int, rowIDs []int32, dst []uint64) {
	seed := keyHashSeed ^ uint64(len(cols))
	data, ar := s.data, s.arity
	switch len(cols) {
	case 1:
		c := cols[0]
		for i, id := range rowIDs {
			dst[i] = foldHash(seed, data[int(id)*ar+c])
		}
	case 2:
		c0, c1 := cols[0], cols[1]
		for i, id := range rowIDs {
			base := int(id) * ar
			dst[i] = foldHash(foldHash(seed, data[base+c0]), data[base+c1])
		}
	default:
		for i, id := range rowIDs {
			base := int(id) * ar
			h := seed
			for _, c := range cols {
				h = foldHash(h, data[base+c])
			}
			dst[i] = h
		}
	}
}

// hashRows fingerprints a run of probe rows: through the flat slab kernel
// when the index uses the default fingerprint, row-at-a-time through the
// injected hash otherwise (identical bits either way).
func (ix *Index) hashRows(sl Slab, cols []int, rowIDs []int32, dst []uint64) {
	if ix.fast {
		sl.HashCols(cols, rowIDs, dst)
		return
	}
	for i, id := range rowIDs {
		dst[i] = ix.hash(sl.Row(id), cols)
	}
}

// --- scratch ----------------------------------------------------------

// cacheEnt memoizes one resolved bucket: probes whose fingerprint maps to
// the same slot reuse it after an exact probe-key comparison against the
// representative row, so equal-key runs cost one bucket walk total.
type cacheEnt struct {
	fp    uint64
	ids   []int32
	row   int32 // representative probe row (in the probe slab)
	epoch uint32
}

// BatchScratch holds the reusable buffers of the batch kernels and of
// key grouping: the fingerprint staging area, the survivor buffer, an
// iota buffer for whole-relation probes, the bucket-result cache, and the
// grouping table, first-row list and per-row ids of groupKeys. Scratches
// are pooled (GetScratch/Release); a warm kernel call allocates nothing,
// and a grouping (Project, Select, buildIndex) allocates only what its
// result keeps.
type BatchScratch struct {
	fps   [probeBatch]uint64
	ids   []int32 // iota buffer handed to kernels as rowIDs
	keep  []int32 // survivor buffer returned by ContainsBatch and Select
	epoch uint32  // bumped per kernel call; cache entries from other calls are dead
	cache [cacheSlots]cacheEnt

	// The grouping table lives in one of slots and spare and doubles into
	// the other, so a warm grouping reuses both; first and rowIDs back
	// groupKeys' results.
	slots, spare []slot
	first        []int32
	rowIDs       []int32
}

var scratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// GetScratch returns a scratch from the pool.
func GetScratch() *BatchScratch { return scratchPool.Get().(*BatchScratch) }

// maxKeptGroup bounds, in slots, the largest table a pooled grouping may
// need: enough for 2¹² rows with as many keys, the size of the relations
// a cold bind typically reads. Larger groupings allocate their buffers
// afresh, exactly as they would without the pool. Pooling more costs
// twice over: a pooled scratch stays live through the next two
// collections, so pooling the 2¹⁶-row groupings of a server that binds
// over 2¹⁶- and 2¹⁸-row relations at start-up (3.5 MB a scratch) raised
// its peak RSS by about 16 %; and a scratch is per P, so a goroutine that
// moves between Ps finds a cold one, which makes a large grouping's
// allocation count vary from run to run.
const maxKeptGroup = 1 << 13

// Release returns the scratch to the pool. Buffers previously returned by
// ContainsBatch or groupKeys on this scratch are invalid afterwards.
func (sc *BatchScratch) Release() { scratchPool.Put(sc) }

// Iota fills the scratch's id buffer with row ids [0, n) — the rowIDs
// argument for probing a whole relation.
func (sc *BatchScratch) Iota(n int) []int32 {
	return sc.IotaRange(0, n)
}

// IotaRange fills the scratch's id buffer with row ids [lo, hi).
func (sc *BatchScratch) IotaRange(lo, hi int) []int32 {
	n := hi - lo
	if cap(sc.ids) < n {
		sc.ids = make([]int32, n)
	}
	ids := sc.ids[:n]
	for i := range ids {
		ids[i] = int32(lo + i)
	}
	return ids
}

func (sc *BatchScratch) growKeep(n int) []int32 {
	if cap(sc.keep) < n {
		sc.keep = make([]int32, n)
	}
	return sc.keep[:n]
}

// sizeGroup readies sc's buffers for a pooled grouping of n rows whose
// table starts at size slots. The table ends at no more than top =
// tableSize(2n) slots, doubling through slots and spare in turn, so one of
// the two must hold top slots and the other top/2; first and rowIDs hold n
// ids each. A short scratch gets each pair in one allocation, so a cold
// scratch costs the same two allocations however often the table doubles,
// and a warm one none.
func (sc *BatchScratch) sizeGroup(n, size int) {
	top := tableSize(2 * n)
	hi, lo := sc.slots, sc.spare
	if cap(hi) < cap(lo) {
		hi, lo = lo, hi
	}
	if cap(hi) < top || cap(lo) < top/2 {
		buf := make([]slot, top+top/2)
		hi, lo = buf[:top:top], buf[top:]
	}
	// The table starts in slots and ends there after an even number of
	// doublings.
	sc.slots, sc.spare = hi, lo
	if bits.TrailingZeros(uint(top/size))%2 == 1 {
		sc.slots, sc.spare = lo, hi
	}
	if cap(sc.first) < n || cap(sc.rowIDs) < n {
		buf := make([]int32, 2*n)
		sc.first, sc.rowIDs = buf[:0:n], buf[n:]
	}
}

// emptySlots returns buf resliced to n zeroed slots, reallocating it only
// when its capacity is short.
func emptySlots(buf []slot, n int) []slot {
	if cap(buf) < n {
		return make([]slot, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// probeEq reports whether probe rows a and b of sl agree on cols.
func probeEq(sl Slab, cols []int, a, b int32) bool {
	if a == b {
		return true
	}
	ra, rb := sl.Row(a), sl.Row(b)
	for _, c := range cols {
		if ra[c] != rb[c] {
			return false
		}
	}
	return true
}

// bucket resolves the bucket of probe row id through the direct-mapped
// cache: on a fingerprint hit the exact probe keys are compared, so a
// colliding (or degraded) hash falls through to a real lookup instead of
// reusing the wrong bucket.
func (sc *BatchScratch) bucket(ix *Index, sl Slab, probeCols []int, fp uint64, id int32) []int32 {
	e := &sc.cache[uint32(fp>>32)&(cacheSlots-1)]
	if e.epoch == sc.epoch && e.fp == fp && probeEq(sl, probeCols, id, e.row) {
		return e.ids
	}
	_, ids := ix.find(fp, sl.Row(id), probeCols)
	*e = cacheEnt{fp: fp, ids: ids, row: id, epoch: sc.epoch}
	return ids
}

// b2i returns 1 for true and 0 for false; the compiler lowers it to a
// conditional move, keeping the survivor compaction below branch-free.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- batched probes ---------------------------------------------------

// ContainsBatch filters rowIDs (rows of the probe slab sl) down to those
// whose probeCols projection matches some indexed row, preserving input
// order. The result aliases the scratch's survivor buffer: it is valid
// until the next ContainsBatch on the same scratch and must not be
// modified. A warm call (scratch buffers grown) allocates
// nothing.
func (ix *Index) ContainsBatch(sl Slab, probeCols []int, rowIDs []int32, sc *BatchScratch) []int32 {
	n := len(rowIDs)
	keep := sc.growKeep(n)
	sc.epoch++
	k := 0
	for lo := 0; lo < n; lo += probeBatch {
		hi := lo + probeBatch
		if hi > n {
			hi = n
		}
		batch := rowIDs[lo:hi]
		fps := sc.fps[:len(batch)]
		ix.hashRows(sl, probeCols, batch, fps)
		for i, id := range batch {
			ids := sc.bucket(ix, sl, probeCols, fps[i], id)
			// Branch-free compaction: unconditional store, conditional
			// advance.
			keep[k] = id
			k += b2i(len(ids) > 0)
		}
	}
	return keep[:k]
}

// LookupBatch resolves the bucket of every probe row and hands non-empty
// ones to emit in input order: emit(i, ids) receives the position i of the
// probe within rowIDs and its bucket (aliasing the index's row array, like
// Lookup). Beyond the emit calls themselves, a warm call allocates
// nothing.
func (ix *Index) LookupBatch(sl Slab, probeCols []int, rowIDs []int32, sc *BatchScratch, emit func(i int, ids []int32)) {
	n := len(rowIDs)
	sc.epoch++
	for lo := 0; lo < n; lo += probeBatch {
		hi := lo + probeBatch
		if hi > n {
			hi = n
		}
		batch := rowIDs[lo:hi]
		fps := sc.fps[:len(batch)]
		ix.hashRows(sl, probeCols, batch, fps)
		for i, id := range batch {
			if ids := sc.bucket(ix, sl, probeCols, fps[i], id); len(ids) > 0 {
				emit(lo+i, ids)
			}
		}
	}
}
