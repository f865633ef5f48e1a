package database

// The index layer: allocation-free hash indexes over columnar tuple slabs.
//
// A Relation freezes its tuples into a Slab — one flat []Value with
// arity-strided rows — and an Index groups row ids by a 64-bit fingerprint
// of the key columns. Buckets store row ids (int32) into the slab, so a
// probe performs no allocation: hash the probe columns, look the
// fingerprint up, compare the actual key columns of the bucketed rows to
// resolve fingerprint collisions exactly, and return a sub-slice of the
// index's row array. The RAM-model dictionaries of Section 2.3 (linear
// preprocessing, constant-time probes) are exactly this structure; keeping
// the probe free of allocation is what makes the constant factor small.

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Slab is a relation's frozen tuple storage: row i occupies
// data[i*arity : (i+1)*arity]. Rows returned by Row are views into the
// slab, never copies.
//
// The data may live in heap slices (the mutation-capable default) or alias
// read-only pages of an mmap-ed snapshot file (mapped set; see
// internal/snapshot and FromSlab in store.go). The distinction is
// invisible to every read path — probes, batch kernels, and index builds
// operate on the []Value either way — and the write paths (Append here,
// the mutation funnel in mutate.go) copy to heap before the first write.
type Slab struct {
	data   []Value
	arity  int
	mapped bool // data aliases read-only mapped snapshot pages
}

// Mapped reports whether the slab's storage aliases read-only mapped
// snapshot pages (and so must never be written through).
func (s Slab) Mapped() bool { return s.mapped }

// Row returns row i as a tuple view into the slab.
func (s Slab) Row(i int32) Tuple {
	a := int(i) * s.arity
	return Tuple(s.data[a : a+s.arity])
}

// Len returns the number of rows.
func (s Slab) Len() int {
	if s.arity == 0 {
		return 0
	}
	return len(s.data) / s.arity
}

// Append adds a row to the slab and returns the grown slab together with
// the new row's id. The original slab value is untouched (append copies
// when the backing array is full, and freshly built slabs have no spare
// capacity), so existing row views stay valid; delta refresh uses this to
// extend a bound spine's storage without rebuilding it.
func (s Slab) Append(t Tuple) (Slab, int32) {
	if s.arity == 0 || len(t) != s.arity {
		panic(fmt.Sprintf("database: slab append: arity %d, got tuple of length %d", s.arity, len(t)))
	}
	if s.mapped {
		// Mapped pages are read-only; copy to heap before the first write.
		// (The mapped slice's len equals its cap, so append would reallocate
		// anyway — this makes the copy-on-write explicit and unconditional.)
		s.data = append([]Value(nil), s.data...)
		s.mapped = false
	}
	id := int32(s.Len())
	s.data = append(s.data, t...)
	return s, id
}

// Full reports whether the slab has reached the int32 row-id capacity.
func (s Slab) Full() bool { return s.Len() >= maxRows }

// Slab returns the relation's columnar slab, building and caching it on
// first use. The slab is invalidated by mutations, like the indexes.
func (r *Relation) Slab() Slab {
	if p := r.slabPtr.Load(); p != nil {
		return *p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slabLocked()
}

// slabLocked is Slab with r.mu already held. Relations grown past the int32
// row-id range fail loudly here — the choke point of every slab and index
// build — instead of letting the int32 conversions truncate: the internal
// relational operations (Project, Join, ...) append to Tuples directly, so
// the TryInsert guard alone cannot bound them.
func (r *Relation) slabLocked() Slab {
	if p := r.slabPtr.Load(); p != nil {
		return *p
	}
	if len(r.Tuples) > maxRows {
		panic(fmt.Sprintf("database: relation %s has %d rows; row ids are int32, max %d", r.Name, len(r.Tuples), maxRows))
	}
	s := Slab{arity: r.Arity, data: make([]Value, len(r.Tuples)*r.Arity)}
	for i, t := range r.Tuples {
		copy(s.data[i*r.Arity:(i+1)*r.Arity], t)
	}
	r.slabPtr.Store(&s)
	return s
}

// Row returns tuple i as a view into the relation's slab.
func (r *Relation) Row(i int) Tuple { return r.Slab().Row(int32(i)) }

// --- fingerprints -----------------------------------------------------

const keyHashSeed uint64 = 0x9e3779b97f4a7c15

// foldHash mixes one value into a running fingerprint with a 128-bit
// multiply (wyhash-style); one multiplication per column, no allocation.
func foldHash(h uint64, v Value) uint64 {
	hi, lo := bits.Mul64(h^uint64(v), 0xa0761d6478bd642f)
	return hi ^ lo
}

// KeyHash returns a 64-bit fingerprint of t's projection onto cols. Equal
// projections always collide; distinct projections collide with
// probability ~2^-64 and every index resolves such collisions exactly by
// comparing the real key columns.
func (t Tuple) KeyHash(cols []int) uint64 {
	h := keyHashSeed ^ uint64(len(cols))
	for _, c := range cols {
		h = foldHash(h, t[c])
	}
	return h
}

// keyHashFunc abstracts the fingerprint function so tests can force
// collisions; production indexes always use Tuple.KeyHash.
type keyHashFunc func(t Tuple, cols []int) uint64

func defaultKeyHash(t Tuple, cols []int) uint64 { return t.KeyHash(cols) }

// testIndexHash, when non-nil, replaces the default fingerprint in every
// subsequent IndexOn build. In-package tests inject degraded hashes
// directly through buildIndex; this process-wide hook exists for the
// cross-package differential suites (internal/snapshot, internal/plan) that
// must degrade whole-engine runs they cannot reach into.
var testIndexHash atomic.Pointer[keyHashFunc]

// SetIndexHashForTesting forces every subsequent index build process-wide
// onto the given fingerprint function and returns a restore func. A
// degraded hash (a handful of fingerprints for the whole domain) drives
// the exact collision-resolution paths that the 2^-64 default never
// exercises. Answers and counted steps must be identical under any hash —
// the differential suites inject one to prove it. Not for production use;
// concurrent index builds observe the swap racily.
func SetIndexHashForTesting(hash func(Tuple, []int) uint64) (restore func()) {
	var h keyHashFunc
	if hash != nil {
		h = hash
		testIndexHash.Store(&h)
	} else {
		testIndexHash.Store(nil)
	}
	return func() { testIndexHash.Store(nil) }
}

// identCols[:k] is the identity column list [0..k); shared so full-arity
// probes need not allocate one.
var identCols = func() []int {
	c := make([]int, 64)
	for i := range c {
		c[i] = i
	}
	return c
}()

func identityCols(arity int) []int {
	if arity <= len(identCols) {
		return identCols[:arity]
	}
	c := make([]int, arity)
	for i := range c {
		c[i] = i
	}
	return c
}

// colsSig packs a column list into one uint64 — 4 bits of length, 7 bits
// per column — as the index-cache key, replacing the old fmt.Sprint
// signature (reflection plus an allocation under the relation mutex).
// Lists longer than 8 columns or with column numbers ≥ 126 fall back to a
// byte-string signature (colsSigBig).
func colsSig(cols []int) (uint64, bool) {
	if len(cols) > 8 {
		return 0, false
	}
	sig := uint64(len(cols))
	for i, c := range cols {
		if c >= 126 {
			return 0, false
		}
		sig |= uint64(c+1) << (4 + 7*i)
	}
	return sig, true
}

func colsSigBig(cols []int) string {
	b := make([]byte, 0, 2*len(cols))
	for _, c := range cols {
		b = append(b, byte(c), byte(c>>8))
	}
	return string(b)
}

// --- the index --------------------------------------------------------

// span is one bucket: rows [off, off+n) of the shard's row array, all
// sharing a single key-column projection.
type span struct{ off, n int32 }

// shard is an index's bucket layout. buckets maps a fingerprint to its
// first bucket; in the (cosmically rare) event that two distinct keys
// share a fingerprint, the extra buckets live in overflow.
type shard struct {
	buckets  map[uint64]span
	rows     []int32
	overflow map[uint64][]span
}

// Index is a hash index of a relation's tuples keyed on a column subset.
// Buckets hold row ids into the relation's Slab, grouped by the exact key
// projection (fingerprint collisions are resolved at build time). After
// construction the index is read-only, so lookups from many goroutines
// need no locking, and the probe path performs zero allocations.
type Index struct {
	Cols []int
	slab Slab
	hash keyHashFunc
	fast bool // hash is the default fingerprint, so Slab.HashCols applies

	// state holds the bucket layout, plus the lazily built flat probe
	// table of the batch kernels, behind one atomic pointer: the lazy
	// table build swaps in a whole new state while concurrent readers
	// keep a consistent view of the old one.
	state   atomic.Pointer[indexState]
	tableMu sync.Mutex // serializes lazy table builds
}

// indexState is one immutable-together snapshot of an index's layout.
// table (when non-nil) is derived from exactly this shard; bundling them
// keeps a reader from pairing a fresh table with stale spans.
type indexState struct {
	shard shard
	table *probeTable // nil until a batched probe builds it
}

// keyEq reports whether the indexed row's key columns equal the probe's
// probeCols projection.
func (ix *Index) keyEq(row int32, probe Tuple, probeCols []int) bool {
	t := ix.slab.Row(row)
	for i, c := range ix.Cols {
		if t[c] != probe[probeCols[i]] {
			return false
		}
	}
	return true
}

// Lookup returns the ids of all rows whose key columns equal probe's
// projection onto probeCols (aligned with the index's Cols). The returned
// slice aliases the index's row array; it is valid until the index is
// garbage collected and must not be modified. Lookup allocates nothing.
func (ix *Index) Lookup(probe Tuple, probeCols []int) []int32 {
	fp := ix.hash(probe, probeCols)
	sh := &ix.state.Load().shard
	sp, ok := sh.buckets[fp]
	if !ok {
		return nil
	}
	if ix.keyEq(sh.rows[sp.off], probe, probeCols) {
		return sh.rows[sp.off : sp.off+sp.n : sp.off+sp.n]
	}
	for _, sp := range sh.overflow[fp] {
		if ix.keyEq(sh.rows[sp.off], probe, probeCols) {
			return sh.rows[sp.off : sp.off+sp.n : sp.off+sp.n]
		}
	}
	return nil
}

// Contains reports whether some indexed row matches probe on probeCols.
func (ix *Index) Contains(probe Tuple, probeCols []int) bool {
	return len(ix.Lookup(probe, probeCols)) > 0
}

// Row resolves a row id returned by Lookup to its tuple view.
func (ix *Index) Row(id int32) Tuple { return ix.slab.Row(id) }

// Buckets returns the number of distinct keys in the index.
func (ix *Index) Buckets() int {
	sh := &ix.state.Load().shard
	n := len(sh.buckets)
	for _, sps := range sh.overflow {
		n += len(sps)
	}
	return n
}

// buildIndex constructs the index over tuples (backed by sl) keyed on
// cols: assign each distinct fingerprint a dense id, count, prefix-sum,
// fill, then split any bucket that mixes distinct true keys (a real
// fingerprint collision) into per-key groups. A nil hash selects the
// default fingerprint (Tuple.KeyHash) and additionally enables the batched
// slab-hashing kernel; tests inject a degraded hash to force collisions.
func buildIndex(tuples []Tuple, cols []int, sl Slab, hash keyHashFunc) *Index {
	fast := hash == nil
	if fast {
		hash = defaultKeyHash
	}
	ix := &Index{
		Cols: append([]int(nil), cols...),
		slab: sl,
		hash: hash,
		fast: fast,
	}
	fps := make([]uint64, len(tuples))
	for i, t := range tuples {
		fps[i] = hash(t, cols)
	}
	idOf := make(map[uint64]int32)
	var counts []int32
	ids := make([]int32, len(tuples))
	for i, fp := range fps {
		id, ok := idOf[fp]
		if !ok {
			id = int32(len(counts))
			idOf[fp] = id
			counts = append(counts, 0)
		}
		ids[i] = id
		counts[id]++
	}
	offs := make([]int32, len(counts))
	var off int32
	for id, c := range counts {
		offs[id] = off
		off += c
	}
	rows := make([]int32, len(tuples))
	cur := make([]int32, len(counts))
	for rowID, id := range ids {
		rows[offs[id]+cur[id]] = int32(rowID)
		cur[id]++
	}
	buckets := make(map[uint64]span, len(counts))
	for fp, id := range idOf {
		buckets[fp] = span{offs[id], counts[id]}
	}
	sh := shard{buckets: buckets, rows: rows}
	// Exactness pass: a fingerprint bucket must hold a single true key.
	for fp, sp := range buckets {
		if sp.n > 1 && !ix.uniformKey(sh.rows, sp) {
			groups := ix.splitSpan(sh.rows, sp)
			buckets[fp] = groups[0]
			if sh.overflow == nil {
				sh.overflow = make(map[uint64][]span)
			}
			sh.overflow[fp] = groups[1:]
		}
	}
	ix.state.Store(&indexState{shard: sh})
	return ix
}

// uniformKey reports whether every row of the span agrees with the first
// on the key columns.
func (ix *Index) uniformKey(rows []int32, sp span) bool {
	first := ix.slab.Row(rows[sp.off])
	for i := sp.off + 1; i < sp.off+sp.n; i++ {
		t := ix.slab.Row(rows[i])
		for _, c := range ix.Cols {
			if t[c] != first[c] {
				return false
			}
		}
	}
	return true
}

// splitSpan stably regroups a colliding span's rows by their true key and
// rewrites them back in group order, returning one sub-span per key.
func (ix *Index) splitSpan(rows []int32, sp span) []span {
	orig := append([]int32(nil), rows[sp.off:sp.off+sp.n]...)
	var groups [][]int32
next:
	for _, rowID := range orig {
		t := ix.slab.Row(rowID)
		for g, grp := range groups {
			rep := ix.slab.Row(grp[0])
			same := true
			for _, c := range ix.Cols {
				if t[c] != rep[c] {
					same = false
					break
				}
			}
			if same {
				groups[g] = append(grp, rowID)
				continue next
			}
		}
		groups = append(groups, []int32{rowID})
	}
	spans := make([]span, len(groups))
	off := sp.off
	for g, grp := range groups {
		copy(rows[off:], grp)
		spans[g] = span{off, int32(len(grp))}
		off += int32(len(grp))
	}
	return spans
}

// --- in-place patching ------------------------------------------------
//
// Delta refresh (plan.Prepared.Refresh) patches a bound index instead of
// rebuilding it: inserted rows are appended to the slab and routed into
// their bucket, deleted rows are cut out of theirs. Lookup's contract —
// one contiguous, allocation-free sub-slice per key — is preserved by
// relocating a bucket to the tail of the row array when it cannot
// grow in place. The abandoned slots are never reclaimed: the consumer
// bounds them by rebuilding after a budget of changes (the cq refreshers
// charge every patched row to theirs). Patching is NOT safe concurrently
// with lookups; the refresh path serializes both.

// SetSlab repoints the index at a grown slab (from Slab.Append). The new
// slab must extend the indexed one: existing row ids must resolve to the
// same tuples.
func (ix *Index) SetSlab(s Slab) { ix.slab = s }

// patchShard returns the layout about to be patched in place, first
// dropping any derived probe table (its spans are about to go stale).
// Callers are serialized with lookups per the patching contract above.
func (ix *Index) patchShard() *shard {
	st := ix.state.Load()
	if st.table != nil {
		st = &indexState{shard: st.shard}
		ix.state.Store(st)
	}
	return &st.shard
}

// AddRow routes slab row id into its bucket, creating the bucket if the
// key is new. The row must already be present in the slab (SetSlab first
// when it was just appended).
func (ix *Index) AddRow(id int32) {
	t := ix.slab.Row(id)
	fp := ix.hash(t, ix.Cols)
	sh := ix.patchShard()
	sp, ok := sh.buckets[fp]
	if !ok {
		sh.rows = append(sh.rows, id)
		sh.buckets[fp] = span{int32(len(sh.rows) - 1), 1}
		return
	}
	if ix.keyEq(sh.rows[sp.off], t, ix.Cols) {
		sh.buckets[fp] = ix.appendToSpan(sh, sp, id)
		return
	}
	for i, osp := range sh.overflow[fp] {
		if ix.keyEq(sh.rows[osp.off], t, ix.Cols) {
			sh.overflow[fp][i] = ix.appendToSpan(sh, osp, id)
			return
		}
	}
	// New key whose fingerprint collides with an existing one.
	sh.rows = append(sh.rows, id)
	if sh.overflow == nil {
		sh.overflow = make(map[uint64][]span)
	}
	sh.overflow[fp] = append(sh.overflow[fp], span{int32(len(sh.rows) - 1), 1})
}

// appendToSpan grows a bucket by one row: in place when the span already
// sits at the tail of the row array, otherwise by relocating the
// whole bucket to the tail (keeping it contiguous for Lookup) and
// abandoning the old slots.
func (ix *Index) appendToSpan(sh *shard, sp span, id int32) span {
	if int(sp.off+sp.n) == len(sh.rows) {
		sh.rows = append(sh.rows, id)
		return span{sp.off, sp.n + 1}
	}
	off := int32(len(sh.rows))
	sh.rows = append(sh.rows, sh.rows[sp.off:sp.off+sp.n]...)
	sh.rows = append(sh.rows, id)
	return span{off, sp.n + 1}
}

// RemoveRow cuts slab row id out of its bucket, reporting whether it was
// found. The bucket shrinks in place (the removed slot is swapped with
// the bucket's last and abandoned); an emptied bucket is deleted, with
// any fingerprint-colliding overflow span promoted in its place.
func (ix *Index) RemoveRow(id int32) bool {
	t := ix.slab.Row(id)
	fp := ix.hash(t, ix.Cols)
	sh := ix.patchShard()
	sp, ok := sh.buckets[fp]
	if !ok {
		return false
	}
	if cut, found := ix.cutFromSpan(sh, sp, id); found {
		if cut.n == 0 {
			if ovs := sh.overflow[fp]; len(ovs) > 0 {
				sh.buckets[fp] = ovs[0]
				if len(ovs) == 1 {
					delete(sh.overflow, fp)
				} else {
					sh.overflow[fp] = ovs[1:]
				}
			} else {
				delete(sh.buckets, fp)
			}
		} else {
			sh.buckets[fp] = cut
		}
		return true
	}
	for i, osp := range sh.overflow[fp] {
		if cut, found := ix.cutFromSpan(sh, osp, id); found {
			if cut.n == 0 {
				ovs := sh.overflow[fp]
				sh.overflow[fp] = append(ovs[:i], ovs[i+1:]...)
				if len(sh.overflow[fp]) == 0 {
					delete(sh.overflow, fp)
				}
			} else {
				sh.overflow[fp][i] = cut
			}
			return true
		}
	}
	return false
}

// cutFromSpan removes id from the span if present, swapping it with the
// span's last row and shrinking by one.
func (ix *Index) cutFromSpan(sh *shard, sp span, id int32) (span, bool) {
	for i := sp.off; i < sp.off+sp.n; i++ {
		if sh.rows[i] == id {
			sh.rows[i] = sh.rows[sp.off+sp.n-1]
			return span{sp.off, sp.n - 1}, true
		}
	}
	return sp, false
}

// --- KeyMap -----------------------------------------------------------

// KeyMap assigns dense ids [0, Len) to the distinct key-column
// projections of interned tuples. It is the fingerprint analogue of a
// map[string]T keyed on Tuple.Key: collisions are resolved exactly by
// comparing materialized key values, and Find (the probe path) allocates
// nothing. The counting DP of Theorem 4.21 stores its per-separator sums
// in slices indexed by KeyMap ids.
type KeyMap struct {
	cols []int
	m    map[uint64]int32
	keys []Tuple // materialized projection per id
	next []int32 // collision chain: next id with the same fingerprint, or -1
}

// NewKeyMap creates a KeyMap grouping tuples on the given columns.
func NewKeyMap(cols []int) *KeyMap {
	return &KeyMap{cols: append([]int(nil), cols...), m: make(map[uint64]int32)}
}

// Len returns the number of distinct keys interned so far.
func (km *KeyMap) Len() int { return len(km.keys) }

// Key returns the materialized projection of id.
func (km *KeyMap) Key(id int) Tuple { return km.keys[id] }

// Find returns the id of t's projection onto probeCols (aligned with the
// map's columns), or -1. probeCols may differ from the interning columns;
// pass km.Cols-aligned columns of the probing tuple.
func (km *KeyMap) Find(t Tuple, probeCols []int) int {
	fp := t.KeyHash(probeCols)
	id, ok := km.m[fp]
	if !ok {
		return -1
	}
	for {
		k := km.keys[id]
		same := true
		for i := range probeCols {
			if k[i] != t[probeCols[i]] {
				same = false
				break
			}
		}
		if same {
			return int(id)
		}
		if km.next[id] < 0 {
			return -1
		}
		id = km.next[id]
	}
}

// Intern returns the id of t's projection onto the map's columns, adding
// it if new.
func (km *KeyMap) Intern(t Tuple) int {
	if id := km.Find(t, km.cols); id >= 0 {
		return id
	}
	key := make(Tuple, len(km.cols))
	for i, c := range km.cols {
		key[i] = t[c]
	}
	id := int32(len(km.keys))
	km.keys = append(km.keys, key)
	km.next = append(km.next, -1)
	fp := t.KeyHash(km.cols)
	if first, ok := km.m[fp]; ok {
		// Walk to the chain tail (collisions are ~nonexistent).
		at := first
		for km.next[at] >= 0 {
			at = km.next[at]
		}
		km.next[at] = id
	} else {
		km.m[fp] = id
	}
	return int(id)
}
