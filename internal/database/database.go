// Package database implements the finite relational structures of Section 2.1
// of the paper: domains, relations, databases, their sizes ‖D‖ and degrees,
// together with the basic relational operations (projection, selection,
// join, semijoin) that the query engines build on.
//
// Values are interned integers. A Dictionary maps external strings to Values
// so that databases over arbitrary constants can be loaded; all engines work
// on Values only, matching the RAM model of Section 2.3 where the domain
// comes with a linear order (here: the order on Value).
package database

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// maxRows caps a relation's tuple count so that row ids always fit in the
// int32 used by slab rows, index buckets, and KeyMap ids; beyond it the
// conversions in the index layer would silently truncate. It is a variable
// (not a const) only so the guard-path tests can lower it instead of
// allocating 2^31 rows.
var maxRows = math.MaxInt32

// Value is a domain element. The linear order on the domain required by the
// RAM model of Section 2.3.1 is the natural order on Value.
type Value int64

// Tuple is an ordered list of domain elements.
type Tuple []Value

// Clone returns a fresh copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether t and u are the same tuple.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically; it returns -1, 0 or +1.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		switch {
		case t[i] < u[i]:
			return -1
		case t[i] > u[i]:
			return 1
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// String renders the tuple as "(v1,v2,...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Relation is a named finite relation: a set of tuples of fixed arity.
// Reads (lookups, iteration, index builds) are safe from multiple
// goroutines; mutations (Insert, Dedup, Sort) are not and must be
// serialized by the caller.
type Relation struct {
	Name   string
	Arity  int
	Tuples []Tuple

	mu        sync.Mutex        // guards index/slab construction
	indexes   map[string]*Index // keyed by indexKey of the columns
	slabPtr   atomic.Pointer[Slab]
	sorted    bool // set by Sort/Dedup, cleared by inserts; enables binary-search Contains
	mapped    bool // storage aliases read-only snapshot pages; promoted to heap on first mutation
	shared    bool // Tuples' header array may be shared with a SortedView; see ownTuples
	logDeltas bool // see the delta log below
	ascent    bool // the outcome of SortedView's strict-ascent check at ascentAt

	// ascentAt-1 is the generation at which SortedView last checked the
	// rows for strict ascent (0: never).
	ascentAt uint64

	// A SortedView's link to the relation whose rows it shares, and that
	// relation's generation when the view was taken: while the view is
	// unmutated (mutations clear viewOf) and the base is still at viewGen,
	// IndexOn reads the base's index cache. See SortedView.
	viewOf  *Relation
	viewGen uint64

	// gen counts mutations (inserts, deletes, reorders — anything that
	// invalidates indexes and may dangle row ids). Prepared query plans
	// snapshot Database.Generation at Bind time and refuse to execute once
	// it has advanced (plan.ErrStalePlan), or incrementally catch up via
	// the delta log below (plan.Prepared.Refresh).
	gen atomic.Uint64

	// Bounded per-generation delta log, populated only after
	// EnableDeltaLog (logDeltas; see mutate.go). deltaFloor is the oldest
	// generation DeltaSince can still answer from.
	deltaFloor uint64
	deltaSize  int
	deltas     []deltaRecord
}

// Generation returns the relation's mutation counter. It advances once
// per content- or order-changing mutation — Insert/TryInsert, InsertBatch,
// Delete/DeleteBatch, and Sort/Dedup when they actually move or remove
// tuples — exactly the operations that invalidate cached indexes, slabs,
// and row ids. No-op mutations (Sort on a sorted relation, Dedup with
// nothing to remove, deleting an absent tuple) leave it untouched so warm
// plans are not staled spuriously.
func (r *Relation) Generation() uint64 { return r.gen.Load() }

// NewRelation creates an empty relation of the given name and arity.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity}
}

// FromTuples builds a relation from the given rows, deduplicating them.
// The rows land as one batch: at most two generation steps (the batch
// insert and a non-trivial Dedup), not one per row.
func FromTuples(name string, arity int, rows []Tuple) *Relation {
	r := NewRelation(name, arity)
	if err := r.InsertBatch(rows); err != nil {
		panic(err.Error())
	}
	r.Dedup()
	return r
}

// TryInsert appends a tuple, reporting an arity mismatch as an error. Load
// paths handling external (possibly malformed) input should use TryInsert
// so they can attach file/line context instead of crashing the process.
func (r *Relation) TryInsert(t Tuple) error {
	if len(t) != r.Arity {
		return fmt.Errorf("database: relation %s has arity %d, got tuple of length %d", r.Name, r.Arity, len(t))
	}
	if len(r.Tuples) >= maxRows {
		return fmt.Errorf("database: relation %s is full: row ids are int32, max %d rows", r.Name, maxRows)
	}
	r.Tuples = append(r.Tuples, t)
	r.mutateOne(t)
	return nil
}

// Insert appends a tuple. Duplicates are permitted until Dedup is called;
// the query engines always work on deduplicated relations. An arity
// mismatch is programmer error and panics; external input goes through
// TryInsert.
func (r *Relation) Insert(t Tuple) {
	if err := r.TryInsert(t); err != nil {
		panic(err.Error())
	}
}

// InsertValues is Insert with variadic values, convenient in tests.
func (r *Relation) InsertValues(vs ...Value) {
	r.Insert(Tuple(vs))
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Sort orders the tuples lexicographically. When tuples actually move,
// row ids held by previously built indexes would dangle, so the caches
// are invalidated and the generation advances (with an empty delta: the
// tuple set is unchanged, only row order). Sorting an already-sorted
// relation is a no-op and leaves the generation untouched.
func (r *Relation) Sort() {
	if r.sorted {
		return
	}
	if sort.SliceIsSorted(r.Tuples, func(i, j int) bool {
		return r.Tuples[i].Compare(r.Tuples[j]) < 0
	}) {
		r.mu.Lock()
		r.sorted = true
		r.mu.Unlock()
		return
	}
	r.ownTuples()
	sort.Slice(r.Tuples, func(i, j int) bool {
		return r.Tuples[i].Compare(r.Tuples[j]) < 0
	})
	r.mutate(nil, nil, true)
}

// ownTuples gives r a private copy of its row-header array before an
// in-place write (a reorder, a compaction, a promotion) when SortedView
// may share the array with another relation. Appends need no copy: a
// view is capped at its length, so either side's append past it
// reallocates or writes beyond what the other side sees.
func (r *Relation) ownTuples() {
	if r.shared {
		r.Tuples = append(make([]Tuple, 0, len(r.Tuples)), r.Tuples...)
		r.shared = false
	}
}

// Dedup sorts the relation and removes duplicate tuples. The generation
// advances at most once — and not at all when the relation is already
// sorted and duplicate-free, so a warm Prepared is not staled by a
// defensive Dedup that changed nothing; such a Dedup only reads the rows.
func (r *Relation) Dedup() {
	if len(r.Tuples) == 0 {
		r.mu.Lock()
		r.sorted = true
		r.mu.Unlock()
		return
	}
	less := func(i, j int) bool {
		return r.Tuples[i].Compare(r.Tuples[j]) < 0
	}
	reorder := !r.sorted && !sort.SliceIsSorted(r.Tuples, less)
	var d int
	if !reorder {
		if d = firstDup(r.Tuples); d == len(r.Tuples) {
			r.mu.Lock()
			r.sorted = true
			r.mu.Unlock()
			return
		}
	}
	r.ownTuples()
	if reorder {
		sort.Slice(r.Tuples, less)
		d = firstDup(r.Tuples)
	}
	// Rows before the first duplicate stay where they are.
	out := r.Tuples[:d]
	var removed []Tuple
	for _, t := range r.Tuples[d:] {
		if t.Equal(out[len(out)-1]) {
			removed = append(removed, t)
		} else {
			out = append(out, t)
		}
	}
	for i := len(out); i < len(r.Tuples); i++ {
		r.Tuples[i] = nil // release duplicates held by the backing array
	}
	r.Tuples = out
	r.mutate(nil, removed, true)
}

// firstDup returns the index of the first of ts equal to its predecessor,
// or len(ts); ts is not empty.
func firstDup(ts []Tuple) int {
	d := 1
	for d < len(ts) && !ts[d].Equal(ts[d-1]) {
		d++
	}
	return d
}

// Contains reports whether the relation holds the given tuple. On a
// sorted relation (any relation after Dedup or Sort) it is a plain binary
// search — no index build, no allocation. Otherwise it probes the
// full-arity fingerprint index, building it on first use.
func (r *Relation) Contains(t Tuple) bool {
	if r.sorted {
		i := sort.Search(len(r.Tuples), func(i int) bool {
			return r.Tuples[i].Compare(t) >= 0
		})
		return i < len(r.Tuples) && r.Tuples[i].Equal(t)
	}
	cols := identityCols(r.Arity)
	return r.IndexOn(cols).Contains(t, cols)
}

// Clone returns a deep copy of the relation (indexes are not copied).
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.Name, r.Arity)
	c.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// SortedView returns a private relation with r's rows, in r's order, when
// those rows are strictly ascending — sorted and duplicate-free, exactly
// what Dedup would leave. ok is false otherwise. The view copies nothing
// that grows with r: it shares r's row-header array, r's slab and, while
// neither side has mutated, r's indexes (IndexOn). No mutation writes a
// slab or a cached index in place (mutations drop or replace them), and
// the header array is marked shared on both sides, so the first in-place
// write on either side (Sort, Dedup, DeleteBatch, a mapped relation's
// promotion) copies it first (ownTuples); mutating either relation thus
// leaves the other intact. The view's headers and slab are capped at
// their length, so an append or a slab Append on its side always copies,
// and one on r's side writes past what the view sees. The view has its
// own flags and generation (0). A relation not flagged sorted is refused
// without a scan; a flagged one is checked row by row, because Sort sets
// the flag without removing duplicates and snapshots persist it. The
// check's outcome is kept until r's generation advances, so binds over an
// unchanged relation scan it once.
func (r *Relation) SortedView(name string) (*Relation, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sorted {
		return nil, false
	}
	gen := r.gen.Load()
	if r.ascentAt != gen+1 {
		r.ascent, r.ascentAt = strictlyAscending(r.Tuples), gen+1
	}
	if !r.ascent {
		return nil, false
	}
	v := NewRelation(name, r.Arity)
	v.sorted = true
	v.viewOf, v.viewGen = r, gen
	if len(r.Tuples) == 0 {
		return v, true
	}
	n := len(r.Tuples)
	v.Tuples = r.Tuples[:n:n]
	v.shared, r.shared = true, true
	if r.Arity > 0 {
		s := r.slabLocked()
		s.data = s.data[:len(s.data):len(s.data)]
		v.slabPtr.Store(&s)
	}
	return v, true
}

// strictlyAscending reports whether every row is less than the next.
func strictlyAscending(ts []Tuple) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Compare(ts[i]) >= 0 {
			return false
		}
	}
	return true
}

// IndexOn builds (or returns the cached) hash index on the given columns.
// It is safe to call from multiple goroutines; concurrent builds on the
// same relation are serialized and the first result is shared. On a
// SortedView that has not mutated, over a base still at the generation
// the view was taken at, it is the base's index — found in or added to
// the base's cache, under one hold of the base's lock — because the
// view's row ids are the base's. Otherwise the relation builds and caches
// its own. Indexes in a base's cache are thus shared by every statement
// bound over it, and nothing patches them: the in-place patching API
// (AddRow, RemoveRow, SetSlab) is for indexes of a statement's own
// relations only.
func (r *Relation) IndexOn(cols []int) *Index {
	r.mu.Lock()
	base, gen := r.viewOf, r.viewGen
	if base == nil {
		defer r.mu.Unlock()
		return r.indexLocked(cols)
	}
	r.mu.Unlock()
	if ix := base.indexAt(cols, gen); ix != nil {
		return ix
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.indexLocked(cols)
}

// indexAt is IndexOn on r while r is at generation gen, else nil.
func (r *Relation) indexAt(cols []int, gen uint64) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen.Load() != gen {
		return nil
	}
	return r.indexLocked(cols)
}

// indexLocked is IndexOn on r's own cache, r.mu held.
func (r *Relation) indexLocked(cols []int) *Index {
	var buf [32]byte
	key := indexKey(buf[:0], cols)
	if ix, ok := r.indexes[string(key)]; ok {
		return ix
	}
	ix := buildIndex(r.Tuples, cols, r.slabLocked(), indexHash())
	r.cacheIndex(key, ix)
	return ix
}

// cacheIndex adds ix to r's index cache under key, r.mu held.
func (r *Relation) cacheIndex(key []byte, ix *Index) {
	if r.indexes == nil {
		r.indexes = make(map[string]*Index)
	}
	r.indexes[string(key)] = ix
}

// Project returns a new deduplicated relation containing the projection of r
// onto the given columns, in first-occurrence order. The first row of each
// distinct key is found through a flat table, then every kept row is
// copied into one exactly sized arena.
func (r *Relation) Project(name string, cols []int) *Relation {
	out := NewRelation(name, len(cols))
	_, first, _ := groupKeys(r.Tuples, cols, nil, false)
	if len(first) == 0 {
		return out
	}
	ar := len(cols)
	arena := make([]Value, len(first)*ar) // non-nil, so arity-0 rows are empty, not nil
	out.Tuples = make([]Tuple, len(first))
	for i, row := range first {
		p := Tuple(arena[i*ar : (i+1)*ar : (i+1)*ar])
		t := r.Tuples[row]
		for j, c := range cols {
			p[j] = t[c]
		}
		out.Tuples[i] = p
	}
	return out
}

// Select returns the sub-relation of tuples satisfying pred. One pass
// collects the survivors' row ids in a pooled scratch, so the output's
// row headers are allocated once, at their exact count.
func (r *Relation) Select(name string, pred func(Tuple) bool) *Relation {
	out := NewRelation(name, r.Arity)
	sc := GetScratch()
	keep := sc.growKeep(len(r.Tuples))
	k := 0
	for i, t := range r.Tuples {
		if pred(t) {
			keep[k] = int32(i)
			k++
		}
	}
	if k > 0 {
		out.Tuples = make([]Tuple, k)
		for i, id := range keep[:k] {
			out.Tuples[i] = r.Tuples[id]
		}
	}
	sc.Release()
	return out
}

// Semijoin keeps the tuples of r that agree with at least one tuple of s on
// the given column pairs (rCols[i] of r must equal sCols[i] of s). This is
// the workhorse of the Yannakakis full reducer (Theorem 4.2).
func Semijoin(r *Relation, rCols []int, s *Relation, sCols []int) *Relation {
	return semijoinProbe(r, rCols, s.IndexOn(sCols))
}

// semijoinProbe is one batched probe pass over r against a prebuilt index
// (see batch.go).
func semijoinProbe(r *Relation, rCols []int, ix *Index) *Relation {
	out := NewRelation(r.Name, r.Arity)
	n := len(r.Tuples)
	if n == 0 {
		return out
	}
	sl := r.Slab()
	sc := GetScratch()
	ids := ix.ContainsBatch(sl, rCols, sc.Iota(n), sc)
	out.Tuples = make([]Tuple, len(ids))
	for i, id := range ids {
		out.Tuples[i] = r.Tuples[id]
	}
	sc.Release()
	return out
}

// Range is a run of consecutive row ids: rows [Off, Off+Len).
type Range struct{ Off, Len int32 }

// GroupSemijoin returns Semijoin's rows — the tuples of r that agree with
// some tuple of s on the column pairs — laid out for a top-down pass from
// s: grouped by key, the groups in the order s's rows first reach them,
// each group in r's row order. The second result gives, for every row of
// s, its group as a row range of the output (the zero Range when the row
// matches nothing). A cursor over s thus moves to its block of matching
// r rows by one array read instead of a hash probe. The probe runs s's
// rows through LookupBatch against r's cached index on rCols, and the
// output shares r's row headers.
func GroupSemijoin(r *Relation, rCols []int, s *Relation, sCols []int) (*Relation, []Range) {
	out := NewRelation(r.Name, r.Arity)
	links := make([]Range, len(s.Tuples))
	if len(r.Tuples) == 0 || len(s.Tuples) == 0 {
		return out, links
	}
	// A bucket is named by its first row: start[row]-1 is the output offset
	// of that bucket's group once placed.
	start := make([]int32, len(r.Tuples))
	out.Tuples = make([]Tuple, 0, len(r.Tuples))
	ix := r.IndexOn(rCols)
	sc := GetScratch()
	ix.LookupBatch(s.Slab(), sCols, sc.Iota(len(s.Tuples)), sc, func(i int, ids []int32) {
		g := &start[ids[0]]
		if *g == 0 {
			*g = int32(len(out.Tuples)) + 1
			for _, id := range ids {
				out.Tuples = append(out.Tuples, r.Tuples[id])
			}
		}
		links[i] = Range{*g - 1, int32(len(ids))}
	})
	sc.Release()
	return out, links
}

// SemijoinScalar is Semijoin on the scalar probe path: one hash, one bucket
// walk, one comparison per probe. It is the oracle of the scalar≡batched
// differential suite.
func SemijoinScalar(r *Relation, rCols []int, s *Relation, sCols []int) *Relation {
	ix := s.IndexOn(sCols)
	out := NewRelation(r.Name, r.Arity)
	if len(r.Tuples) == 0 {
		return out
	}
	out.Tuples = make([]Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		if ix.Contains(t, rCols) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// joinKeepCols returns the columns of s carried into the join output: all
// of s's columns not already matched by sCols.
func joinKeepCols(s *Relation, sCols []int) []int {
	skip := make(map[int]bool, len(sCols))
	for _, c := range sCols {
		skip[c] = true
	}
	var keep []int
	for c := 0; c < s.Arity; c++ {
		if !skip[c] {
			keep = append(keep, c)
		}
	}
	return keep
}

// Join computes the natural join of r and s on the given column pairs. The
// result columns are all of r's columns followed by s's columns not in sCols.
func Join(name string, r *Relation, rCols []int, s *Relation, sCols []int) *Relation {
	ix := s.IndexOn(sCols)
	keep := joinKeepCols(s, sCols)
	out := NewRelation(name, r.Arity+len(keep))
	n := len(r.Tuples)
	if n == 0 {
		return out
	}
	out.Tuples = make([]Tuple, 0, n)
	sl := r.Slab()
	sc := GetScratch()
	sc.epoch++
	// The probe loop is LookupBatch inlined (an emit closure on this hot
	// path costs an indirect call per matching probe); output tuples are
	// sliced off arena chunks instead of allocated one by one.
	ar := out.Arity
	const arenaRows = 1024
	var arena []Value
	for lo := 0; lo < n; lo += probeBatch {
		hi := lo + probeBatch
		if hi > n {
			hi = n
		}
		batch := sc.IotaRange(lo, hi)
		fps := sc.fps[:len(batch)]
		ix.hashRows(sl, rCols, batch, fps)
		for i, id := range batch {
			ids := sc.bucket(ix, sl, rCols, fps[i], id)
			if len(ids) == 0 {
				continue
			}
			t := r.Tuples[id]
			for _, sid := range ids {
				u := ix.Row(sid)
				if len(arena) < ar {
					arena = make([]Value, arenaRows*ar)
				}
				j := Tuple(arena[:ar:ar])
				arena = arena[ar:]
				copy(j, t)
				w := j[len(t):]
				for ci, c := range keep {
					w[ci] = u[c]
				}
				out.Tuples = append(out.Tuples, j)
			}
		}
	}
	sc.Release()
	return out
}

// JoinScalar is Join on the scalar probe path — the oracle of the
// scalar≡batched differential suite.
func JoinScalar(name string, r *Relation, rCols []int, s *Relation, sCols []int) *Relation {
	ix := s.IndexOn(sCols)
	keep := joinKeepCols(s, sCols)
	out := NewRelation(name, r.Arity+len(keep))
	if len(r.Tuples) == 0 {
		return out
	}
	out.Tuples = make([]Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		for _, id := range ix.Lookup(t, rCols) {
			u := ix.Row(id)
			j := make(Tuple, 0, out.Arity)
			j = append(j, t...)
			for _, c := range keep {
				j = append(j, u[c])
			}
			out.Tuples = append(out.Tuples, j)
		}
	}
	return out
}

// Database is a finite relational structure (Section 2.1).
type Database struct {
	Relations map[string]*Relation
	order     []string // insertion order, for deterministic iteration

	// mutGen counts structural mutations (AddRelation). Together with the
	// per-relation counters it forms Generation.
	mutGen atomic.Uint64
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{Relations: make(map[string]*Relation)}
}

// AddRelation registers r under its name, replacing any previous relation of
// that name.
func (db *Database) AddRelation(r *Relation) {
	if _, ok := db.Relations[r.Name]; !ok {
		db.order = append(db.order, r.Name)
	}
	db.Relations[r.Name] = r
	db.mutGen.Add(1)
}

// Generation is a monotone counter that advances on every mutation of the
// database: adding or replacing a relation, and any insert/Sort/Dedup on a
// member relation. Prepared query plans snapshot it at Bind time; a changed
// generation means cached row ids, indexes, and reduced relations may be
// stale. The structural counter is shifted past the per-relation sum so
// that replacing a relation (which may lower the sum) still strictly
// increases the result; the read is allocation-free.
func (db *Database) Generation() uint64 {
	g := db.mutGen.Load() << 24
	for _, name := range db.order {
		g += db.Relations[name].gen.Load()
	}
	return g
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation { return db.Relations[name] }

// Names returns the relation names in insertion order.
func (db *Database) Names() []string { return append([]string(nil), db.order...) }

// Domain returns the sorted active domain: every value occurring in some
// tuple of some relation.
func (db *Database) Domain() []Value {
	seen := make(map[Value]bool)
	for _, r := range db.Relations {
		for _, t := range r.Tuples {
			for _, v := range t {
				seen[v] = true
			}
		}
	}
	dom := make([]Value, 0, len(seen))
	for v := range seen {
		dom = append(dom, v)
	}
	sort.Slice(dom, func(i, j int) bool { return dom[i] < dom[j] })
	return dom
}

// Size computes ‖D‖ = |σ| + |Dom(D)| + Σ_R |R^D|·ar(R) as in Section 2.1.
func (db *Database) Size() int {
	n := len(db.Relations) + len(db.Domain())
	for _, r := range db.Relations {
		n += r.Len() * r.Arity
	}
	return n
}

// Degree returns deg(D) = max over domain elements x of the number of tuples
// (over all relations) in which x occurs (Section 3.1).
func (db *Database) Degree() int {
	deg := make(map[Value]int)
	for _, r := range db.Relations {
		for _, t := range r.Tuples {
			seen := make(map[Value]bool, len(t))
			for _, v := range t {
				if !seen[v] {
					seen[v] = true
					deg[v]++
				}
			}
		}
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	return max
}

// Clone returns a deep copy of the database.
func (db *Database) Clone() *Database {
	c := NewDatabase()
	for _, name := range db.order {
		c.AddRelation(db.Relations[name].Clone())
	}
	return c
}

// Dictionary interns external string constants as Values, so text-format
// data files can be loaded. Value 0 is reserved (never handed out) so
// engines may use it as a sentinel such as the ⊥ of Theorem 4.8.
type Dictionary struct {
	toValue map[string]Value
	toName  []string // toName[v-1] is the name of Value v
}

// NewDictionary creates an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{toValue: make(map[string]Value)}
}

// Intern returns the Value for name, assigning a fresh one if needed.
func (d *Dictionary) Intern(name string) Value {
	if v, ok := d.toValue[name]; ok {
		return v
	}
	d.toName = append(d.toName, name)
	v := Value(len(d.toName))
	d.toValue[name] = v
	return v
}

// Name returns the external name of v, or "?<v>" if v was never interned.
func (d *Dictionary) Name(v Value) string {
	i := int(v) - 1
	if i < 0 || i >= len(d.toName) {
		return fmt.Sprintf("?%d", v)
	}
	return d.toName[i]
}

// Len returns the number of interned names.
func (d *Dictionary) Len() int { return len(d.toName) }
