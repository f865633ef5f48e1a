package database

// Vectorized batch execution over the columnar slabs.
//
// The scalar probe path (Index.Lookup) hashes one tuple, walks one Go map
// bucket, and resolves one key comparison per call. The batch kernels in
// this file amortize all three across runs of probe rows:
//
//   - Slab.HashCols fingerprints a run of slab rows in one pass over the
//     flat column data — no per-tuple slice-header chase.
//   - Each index gets a lazily built flat open-addressing probe table
//     (fingerprint → primary span), replacing the Go map walk with a
//     couple of cache lines of linear probing.
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

import "sync"

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

// --- flat probe tables ------------------------------------------------

// tableEnt is one slot of an index's flat probe table: the primary span of
// fp together with its key values inlined (keys of up to two columns — all
// the engines emit today — fit in k0/k1, so resolving the exact key is a
// compare within the already-loaded entry instead of a random access into
// the indexed slab). n == 0 marks an empty slot (bucket spans are never
// empty); 32 bytes per slot, two slots per cache line.
type tableEnt struct {
	fp     uint64
	off    int32
	n      int32
	k0, k1 Value
}

// probeTable is a flat open-addressing copy of the shard's fingerprint →
// primary-span map. Slots are addressed by the high fingerprint bits, with
// linear probing.
type probeTable struct {
	ents []tableEnt
	mask uint32
}

func (ix *Index) buildProbeTable(sh *shard) *probeTable {
	n := len(sh.buckets)
	if n == 0 {
		return &probeTable{}
	}
	size := 1
	for size < n*2 {
		size <<= 1
	}
	ents := make([]tableEnt, size)
	mask := uint32(size - 1)
	for fp, sp := range sh.buckets {
		slot := uint32(fp>>32) & mask
		for ents[slot].n != 0 {
			slot = (slot + 1) & mask
		}
		e := tableEnt{fp: fp, off: sp.off, n: sp.n}
		rep := ix.slab.Row(sh.rows[sp.off])
		if len(ix.Cols) >= 1 {
			e.k0 = rep[ix.Cols[0]]
		}
		if len(ix.Cols) >= 2 {
			e.k1 = rep[ix.Cols[1]]
		}
		ents[slot] = e
	}
	return &probeTable{ents: ents, mask: mask}
}

// tables returns a state whose flat probe table is built, constructing it
// on first batched probe. Concurrent builders serialize on tableMu;
// in-place patching is already serialized with all lookups.
func (ix *Index) tables() *indexState {
	if st := ix.state.Load(); st.table != nil {
		return st
	}
	ix.tableMu.Lock()
	defer ix.tableMu.Unlock()
	st := ix.state.Load()
	if st.table != nil {
		return st
	}
	st = &indexState{shard: st.shard, table: ix.buildProbeTable(&st.shard)}
	ix.state.Store(st)
	return st
}

// lookupFP resolves one fingerprint against the flat table: find the
// primary span by linear probing, then resolve the exact key like the
// scalar path (primary first, overflow spans after). Returns the same
// bucket slice Lookup would.
func (ix *Index) lookupFP(st *indexState, fp uint64, probe Tuple, probeCols []int) []int32 {
	pt := st.table
	if len(pt.ents) == 0 {
		return nil
	}
	slot := uint32(fp>>32) & pt.mask
	for {
		e := &pt.ents[slot]
		if e.n == 0 {
			return nil
		}
		if e.fp == fp {
			sh := &st.shard
			// Exact-key check against the entry's inlined key values for
			// one- and two-column keys (no slab access; slicing sh.rows
			// below does not dereference it either), via the slab for
			// wider keys.
			var eq bool
			switch len(probeCols) {
			case 1:
				eq = e.k0 == probe[probeCols[0]]
			case 2:
				eq = e.k0 == probe[probeCols[0]] && e.k1 == probe[probeCols[1]]
			default:
				eq = ix.keyEq(sh.rows[e.off], probe, probeCols)
			}
			if eq {
				return sh.rows[e.off : e.off+e.n : e.off+e.n]
			}
			for _, sp := range sh.overflow[fp] {
				if ix.keyEq(sh.rows[sp.off], probe, probeCols) {
					return sh.rows[sp.off : sp.off+sp.n : sp.off+sp.n]
				}
			}
			return nil
		}
		slot = (slot + 1) & pt.mask
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

// BatchScratch holds the reusable buffers of the batch kernels: the
// fingerprint staging area, the survivor buffer, an iota buffer for whole-
// relation probes, and the bucket-result cache. Scratches are pooled
// (GetScratch/Release); a warm kernel call allocates nothing.
type BatchScratch struct {
	fps   [probeBatch]uint64
	ids   []int32 // iota buffer handed to kernels as rowIDs
	keep  []int32 // survivor buffer returned by ContainsBatch
	epoch uint32  // bumped per kernel call; cache entries from other calls are dead
	cache [cacheSlots]cacheEnt
}

var scratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// GetScratch returns a scratch from the pool.
func GetScratch() *BatchScratch { return scratchPool.Get().(*BatchScratch) }

// Release returns the scratch to the pool. Buffers previously returned by
// ContainsBatch on this scratch are invalid afterwards.
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
func (sc *BatchScratch) bucket(ix *Index, st *indexState, sl Slab, probeCols []int, fp uint64, id int32) []int32 {
	e := &sc.cache[uint32(fp>>32)&(cacheSlots-1)]
	if e.epoch == sc.epoch && e.fp == fp && probeEq(sl, probeCols, id, e.row) {
		return e.ids
	}
	ids := ix.lookupFP(st, fp, sl.Row(id), probeCols)
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
// modified. A warm call (tables built, scratch buffers grown) allocates
// nothing.
func (ix *Index) ContainsBatch(sl Slab, probeCols []int, rowIDs []int32, sc *BatchScratch) []int32 {
	st := ix.tables()
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
			ids := sc.bucket(ix, st, sl, probeCols, fps[i], id)
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
	st := ix.tables()
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
			if ids := sc.bucket(ix, st, sl, probeCols, fps[i], id); len(ids) > 0 {
				emit(lo+i, ids)
			}
		}
	}
}
