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
	"encoding/binary"
	"fmt"
	"math/bits"
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

// indexKey appends cols to buf as concatenated uvarints: the key of the
// index cache. Uvarints are prefix-free, so distinct lists get distinct
// keys at any width; callers build the key in a stack buffer and look it
// up with m[string(key)], so a cache hit allocates nothing.
func indexKey(buf []byte, cols []int) []byte {
	for _, c := range cols {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// --- the flat table ---------------------------------------------------

// slot is one entry of a flat table: a key's tag, and in an Index the
// key's bucket [off, off+n) of the row array (while grouping, and in a
// KeyMap, off is the key's dense id and n counts its rows). The tag is the
// key value itself for a one-column key, so a tag match is a key match,
// and the key's fingerprint otherwise, so a tag match is confirmed against
// a stored copy of the key. n == 0 marks an empty slot. 16 bytes, four
// slots per cache line.
type slot struct {
	tag uint64
	off int32
	n   int32
}

// table is the package's one hash table of distinct keys: flat open
// addressing with linear probing, addressed by the high fingerprint bits
// and kept at most half full. Two keys that share a fingerprint are two
// slots on one probe chain. Indexes, grouping (buildIndex, Project) and
// KeyMap all use it.
type table struct {
	slots []slot
	mask  uint32
	used  int // non-empty slots
}

// newTable returns an empty table of at least size slots (a power of two).
func newTable(size int) table {
	n := tableSize(size)
	return table{slots: make([]slot, n), mask: uint32(n - 1)}
}

// tableSize is the least power of two that is at least size (and 1).
func tableSize(size int) int {
	n := 1
	for n < size {
		n <<= 1
	}
	return n
}

func (tb *table) home(fp uint64) uint32 { return uint32(fp>>32) & tb.mask }

// find walks fp's probe chain for tag. It returns the index of the key's
// slot and true, or the index of the empty slot that ends the chain and
// false. eq confirms a tag match when tags are fingerprints; it is nil
// when the tag is the key itself.
func (tb *table) find(fp, tag uint64, eq func(slot) bool) (uint32, bool) {
	for i := tb.home(fp); ; i = (i + 1) & tb.mask {
		s := tb.slots[i]
		if s.n == 0 {
			return i, false
		}
		if s.tag == tag && (eq == nil || eq(s)) {
			return i, true
		}
	}
}

// put fills the empty slot i (as returned by a failed find) and doubles
// the table once it is more than half full, which invalidates i. fpOf
// recomputes a stored key's fingerprint for the rehash.
func (tb *table) put(i uint32, s slot, fpOf func(slot) uint64) {
	tb.slots[i] = s
	if tb.used++; 2*tb.used <= len(tb.slots) {
		return
	}
	old := tb.slots
	*tb = table{slots: make([]slot, 2*len(old)), mask: uint32(2*len(old) - 1), used: tb.used}
	for _, s := range old {
		if s.n != 0 {
			tb.place(s, fpOf(s))
		}
	}
}

// place stores s in the first empty slot of fp's probe chain without
// touching used.
func (tb *table) place(s slot, fp uint64) {
	i := tb.home(fp)
	for tb.slots[i].n != 0 {
		i = (i + 1) & tb.mask
	}
	tb.slots[i] = s
}

// remove empties slot i by backward-shift deletion: each later slot of the
// run that may legally sit at the hole (its home is not cyclically inside
// (hole, j]) moves into it, so every chain stays unbroken and no
// tombstones are needed.
func (tb *table) remove(i uint32, fpOf func(slot) uint64) {
	tb.used--
	for j := (i + 1) & tb.mask; tb.slots[j].n != 0; j = (j + 1) & tb.mask {
		if h := tb.home(fpOf(tb.slots[j])); (j-h)&tb.mask >= (j-i)&tb.mask {
			tb.slots[i] = tb.slots[j]
			i = j
		}
	}
	tb.slots[i] = slot{}
}

// fp1 is KeyHash of a one-column key with value v.
func fp1(v Value) uint64 { return foldHash(keyHashSeed^1, v) }

// tagOf is the table tag of t's projection onto cols, whose fingerprint
// is fp.
func tagOf(t Tuple, cols []int, fp uint64) uint64 {
	if len(cols) == 1 {
		return uint64(t[cols[0]])
	}
	return fp
}

// sameKey reports whether a's projection onto aCols equals b's onto bCols.
func sameKey(a Tuple, aCols []int, b Tuple, bCols []int) bool {
	for i, c := range aCols {
		if a[c] != b[bCols[i]] {
			return false
		}
	}
	return true
}

// groupKeys gives each distinct projection of tuples onto cols a dense id
// in first-appearance order. It returns the table of distinct keys (off
// holds a key's id, n its number of rows), the first row of every id and,
// with withIDs, each row's id. The table starts at min(len(tuples), 1024)
// slots and grows through table.put. A nil hash is the default
// fingerprint.
func groupKeys(tuples []Tuple, cols []int, hash keyHashFunc, withIDs bool) (table, []int32, []int32) {
	var first, ids []int32
	if withIDs {
		ids = make([]int32, len(tuples))
	}
	tb := newTable(min(len(tuples), 1024))
	var t Tuple
	var eq func(slot) bool
	if len(cols) != 1 {
		eq = func(s slot) bool { return sameKey(tuples[first[s.off]], cols, t, cols) }
	}
	fpOf := func(s slot) uint64 {
		switch {
		case len(cols) != 1:
			return s.tag
		case hash == nil:
			return fp1(Value(s.tag))
		}
		return hash(tuples[first[s.off]], cols)
	}
	var r int
	for r, t = range tuples {
		var fp uint64
		switch {
		case hash != nil:
			fp = hash(t, cols)
		case len(cols) == 1:
			fp = fp1(t[cols[0]])
		default:
			fp = t.KeyHash(cols)
		}
		tag := tagOf(t, cols, fp)
		i, ok := tb.find(fp, tag, eq)
		id := int32(len(first))
		if ok {
			s := &tb.slots[i]
			s.n++
			id = s.off
		} else {
			first = append(first, int32(r))
			tb.put(i, slot{tag: tag, off: id, n: 1}, fpOf)
		}
		if withIDs {
			ids[r] = id
		}
	}
	return tb, first, ids
}

// --- the index --------------------------------------------------------

// Index is a hash index of a relation's tuples keyed on a column subset:
// one flat table maps each distinct key to its bucket, a span of the row
// array holding the ids of the key's rows in the relation's Slab. After
// construction the index is read-only, so lookups from many goroutines
// need no locking, and the probe path performs zero allocations.
type Index struct {
	Cols []int
	slab Slab
	hash keyHashFunc
	fast bool // hash is the default fingerprint, so Slab.HashCols applies

	tab  table   // key → bucket [off, off+n) of rows
	rows []int32 // bucket row array
}

// keyEq reports whether the indexed row's key columns equal the probe's
// probeCols projection.
func (ix *Index) keyEq(row int32, probe Tuple, probeCols []int) bool {
	return sameKey(ix.slab.Row(row), ix.Cols, probe, probeCols)
}

// slotFP recomputes the fingerprint of a stored key, for rehashing and
// backward-shift deletion.
func (ix *Index) slotFP(s slot) uint64 {
	switch {
	case len(ix.Cols) != 1:
		return s.tag
	case ix.fast:
		return fp1(Value(s.tag))
	}
	return ix.hash(ix.slab.Row(ix.rows[s.off]), ix.Cols)
}

// find walks the probe chain of fp, the fingerprint of probe's projection
// onto probeCols. It returns the key's slot and bucket, or the empty slot
// that ends the chain and a nil bucket. Lookup and the batch kernels share
// this one loop; a one-column key compares its tag only, a wider key
// confirms a fingerprint match against the bucket's first row.
func (ix *Index) find(fp uint64, probe Tuple, probeCols []int) (uint32, []int32) {
	tb := &ix.tab
	one := len(probeCols) == 1
	tag := fp
	if one {
		tag = uint64(probe[probeCols[0]])
	}
	for i := tb.home(fp); ; i = (i + 1) & tb.mask {
		s := &tb.slots[i]
		if s.n == 0 {
			return i, nil
		}
		if s.tag == tag && (one || ix.keyEq(ix.rows[s.off], probe, probeCols)) {
			return i, ix.rows[s.off : s.off+s.n : s.off+s.n]
		}
	}
}

// Lookup returns the ids of all rows whose key columns equal probe's
// projection onto probeCols (aligned with the index's Cols). The returned
// slice aliases the index's row array; it is valid until the index is
// garbage collected and must not be modified. Lookup allocates nothing.
func (ix *Index) Lookup(probe Tuple, probeCols []int) []int32 {
	_, ids := ix.find(ix.hash(probe, probeCols), probe, probeCols)
	return ids
}

// Contains reports whether some indexed row matches probe on probeCols.
func (ix *Index) Contains(probe Tuple, probeCols []int) bool {
	return len(ix.Lookup(probe, probeCols)) > 0
}

// Row resolves a row id returned by Lookup to its tuple view.
func (ix *Index) Row(id int32) Tuple { return ix.slab.Row(id) }

// buildIndex constructs the index over tuples (backed by sl) keyed on
// cols: give each distinct key a dense id, count, prefix-sum, then fill
// in reverse so every bucket lists its rows in ascending order. Buckets
// lie in the row array in first-appearance order of their keys, and the
// index keeps the grouping's table. A nil hash selects the default
// fingerprint (Tuple.KeyHash) and additionally enables the batched
// slab-hashing kernel; tests inject a degraded hash to force collisions.
func buildIndex(tuples []Tuple, cols []int, sl Slab, hash keyHashFunc) *Index {
	ix := &Index{
		Cols: append([]int(nil), cols...),
		slab: sl,
		hash: hash,
		fast: hash == nil,
	}
	if ix.fast {
		ix.hash = defaultKeyHash
	}
	tb, ends, ids := groupKeys(tuples, cols, hash, true)
	// ends[id] becomes the end of id's bucket: count, then prefix-sum.
	for _, s := range tb.slots {
		if s.n != 0 {
			ends[s.off] = s.n
		}
	}
	var end int32
	for id, n := range ends {
		end += n
		ends[id] = end
	}
	for i := range tb.slots {
		if s := &tb.slots[i]; s.n != 0 {
			s.off = ends[s.off] - s.n
		}
	}
	ix.rows = make([]int32, len(tuples))
	for r := len(ids) - 1; r >= 0; r-- {
		ends[ids[r]]--
		ix.rows[ends[ids[r]]] = int32(r)
	}
	ix.tab = tb
	return ix
}

// --- in-place patching ------------------------------------------------
//
// Delta refresh (plan.Prepared.Refresh) patches a bound index instead of
// rebuilding it: inserted rows are appended to the slab and routed into
// their bucket, deleted rows are cut out of theirs. Lookup's contract —
// one contiguous, allocation-free sub-slice per key — is preserved by
// relocating a bucket to the tail of the row array when it cannot
// grow in place. The abandoned row-array entries are never reclaimed: the
// consumer bounds them by rebuilding after a budget of changes (the cq
// refreshers charge every patched row to theirs). Patching is NOT safe
// concurrently with lookups; the refresh path serializes both.

// SetSlab repoints the index at a grown slab (from Slab.Append). The new
// slab must extend the indexed one: existing row ids must resolve to the
// same tuples.
func (ix *Index) SetSlab(s Slab) { ix.slab = s }

// AddRow routes slab row id into its bucket, creating the bucket if the
// key is new. The row must already be present in the slab (SetSlab first
// when it was just appended). A bucket that cannot grow in place (it does
// not end the row array) moves whole to the tail, abandoning its old
// entries.
func (ix *Index) AddRow(id int32) {
	t := ix.slab.Row(id)
	fp := ix.hash(t, ix.Cols)
	i, ids := ix.find(fp, t, ix.Cols)
	if ids == nil {
		ix.rows = append(ix.rows, id)
		ix.tab.put(i, slot{tag: tagOf(t, ix.Cols, fp), off: int32(len(ix.rows) - 1), n: 1}, ix.slotFP)
		return
	}
	s := &ix.tab.slots[i]
	if int(s.off+s.n) != len(ix.rows) {
		off := int32(len(ix.rows))
		ix.rows = append(ix.rows, ix.rows[s.off:s.off+s.n]...)
		s.off = off
	}
	ix.rows = append(ix.rows, id)
	s.n++
}

// RemoveRow cuts slab row id out of its bucket, reporting whether it was
// found. The bucket shrinks in place (the removed entry is swapped with
// the bucket's last and abandoned); an emptied bucket leaves the table.
func (ix *Index) RemoveRow(id int32) bool {
	t := ix.slab.Row(id)
	i, ids := ix.find(ix.hash(t, ix.Cols), t, ix.Cols)
	if ids == nil {
		return false
	}
	s := &ix.tab.slots[i]
	for j := s.off; j < s.off+s.n; j++ {
		if ix.rows[j] == id {
			ix.rows[j] = ix.rows[s.off+s.n-1]
			if s.n--; s.n == 0 {
				ix.tab.remove(i, ix.slotFP)
			}
			return true
		}
	}
	return false
}

// --- KeyMap -----------------------------------------------------------

// KeyMap assigns dense ids [0, Len) to the distinct key-column
// projections of interned tuples, on the same flat table as the indexes
// (a slot's off is the key's id). It is the fingerprint analogue of a
// map[string]T keyed on Tuple.Key: collisions are resolved exactly by
// comparing materialized key values, and Find (the probe path) allocates
// nothing. The counting DP of Theorem 4.21 stores its per-separator sums
// in slices indexed by KeyMap ids.
type KeyMap struct {
	cols []int
	tab  table
	keys []Value // id's projection is keys[id*len(cols):][:len(cols)]
}

// NewKeyMap creates a KeyMap grouping tuples on the given columns.
func NewKeyMap(cols []int) *KeyMap {
	return &KeyMap{cols: append([]int(nil), cols...), tab: newTable(1)}
}

// Len returns the number of distinct keys interned so far.
func (km *KeyMap) Len() int { return km.tab.used }

// Key returns the materialized projection of id.
func (km *KeyMap) Key(id int) Tuple {
	k := len(km.cols)
	return Tuple(km.keys[id*k : (id+1)*k : (id+1)*k])
}

// find locates t's projection onto probeCols (aligned with the map's
// columns) as table.find does, also returning its fingerprint.
func (km *KeyMap) find(t Tuple, probeCols []int) (uint32, bool, uint64) {
	fp := t.KeyHash(probeCols)
	if len(probeCols) == 1 {
		i, ok := km.tab.find(fp, uint64(t[probeCols[0]]), nil)
		return i, ok, fp
	}
	i, ok := km.tab.find(fp, fp, func(s slot) bool {
		k := km.Key(int(s.off))
		for j, c := range probeCols {
			if k[j] != t[c] {
				return false
			}
		}
		return true
	})
	return i, ok, fp
}

// Find returns the id of t's projection onto probeCols (aligned with the
// map's columns), or -1. probeCols may differ from the interning columns;
// pass km.Cols-aligned columns of the probing tuple.
func (km *KeyMap) Find(t Tuple, probeCols []int) int {
	if i, ok, _ := km.find(t, probeCols); ok {
		return int(km.tab.slots[i].off)
	}
	return -1
}

// Intern returns the id of t's projection onto the map's columns, adding
// it if new.
func (km *KeyMap) Intern(t Tuple) int {
	i, ok, fp := km.find(t, km.cols)
	if ok {
		return int(km.tab.slots[i].off)
	}
	id := km.tab.used
	for _, c := range km.cols {
		km.keys = append(km.keys, t[c])
	}
	km.tab.put(i, slot{tag: tagOf(t, km.cols, fp), off: int32(id), n: 1}, km.slotFP)
	return id
}

// slotFP recomputes the fingerprint of a stored key for rehashing.
func (km *KeyMap) slotFP(s slot) uint64 {
	if len(km.cols) == 1 {
		return fp1(Value(s.tag))
	}
	return s.tag
}
