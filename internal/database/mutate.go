package database

// The mutation layer: batched inserts, deletes, and the per-generation
// delta log that delta-binding (plan.Prepared.Refresh) consumes.
//
// Every mutation funnels through mutate, which drops derived state
// (indexes, slab), advances the generation exactly once per call — an
// N-tuple batch is one generation step, not N — and, when delta logging
// is enabled, appends the mutation's multiset difference to a bounded
// log. The log records occurrence-level changes: inserting a duplicate
// logs one more insert of the same tuple, Delete logs one delete per
// removed occurrence, and a reorder-only mutation (Sort) logs an empty
// record — row-id holders must still rebind, but set-level consumers see
// that nothing changed. Logging is off by default so workloads that
// never refresh a plan pay nothing; plan binding switches it on for the
// relations a refreshable statement reads.

import "fmt"

const (
	// maxDeltaRecords and maxDeltaTuples bound the per-relation delta
	// log. Once either bound is exceeded the oldest records are trimmed
	// and their generations fall off the horizon: DeltaSince then reports
	// the delta unavailable and the consumer falls back to a full
	// re-Bind, which is cheaper than replaying an unbounded history.
	maxDeltaRecords = 256
	maxDeltaTuples  = 4096
)

// Delta is the multiset difference between two generations of a
// relation, as occurrence-level insert and delete lists: a tuple
// inserted twice appears twice in Ins, and deleting a tuple stored with
// multiplicity k contributes k entries to Del.
type Delta struct {
	Ins []Tuple
	Del []Tuple
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Ins) == 0 && len(d.Del) == 0 }

// Len returns the total number of changed tuple occurrences.
func (d Delta) Len() int { return len(d.Ins) + len(d.Del) }

// deltaRecord is the logged multiset difference of one mutation; gen is
// the relation's generation after applying it.
type deltaRecord struct {
	gen uint64
	ins []Tuple
	del []Tuple
}

// mutate drops the relation's derived state and advances its generation
// once, logging the given multiset delta when logging is enabled. sorted
// is the sortedness of r.Tuples after the mutation (deletes preserve
// order; Sort and Dedup establish it).
func (r *Relation) mutate(ins, del []Tuple, sorted bool) {
	r.mu.Lock()
	r.mutateLocked(ins, del, sorted)
	r.mu.Unlock()
}

// mutateOne is mutate for a single inserted tuple; the slice wrapping
// the tuple is only allocated when delta logging is on, so the
// non-refreshing TryInsert path stays allocation-free here.
func (r *Relation) mutateOne(t Tuple) {
	r.mu.Lock()
	if r.logDeltas {
		r.mutateLocked([]Tuple{t}, nil, false)
	} else {
		r.mutateLocked(nil, nil, false)
	}
	r.mu.Unlock()
}

func (r *Relation) mutateLocked(ins, del []Tuple, sorted bool) {
	r.indexes = nil
	r.viewOf = nil // a mutated view's row ids are no longer its base's
	if r.mapped {
		r.promoteLocked()
	} else {
		r.slabPtr.Store(nil)
	}
	r.sorted = sorted
	r.gen.Add(1)
	if r.logDeltas {
		r.logDelta(ins, del)
	}
}

// promoteLocked is the copy-on-write step for relations restored over
// mmap-ed snapshot pages (database.FromSlab with Mapped set): the first
// mutation — which has already restructured r.Tuples but never writes
// through the old views — copies the current tuples into fresh heap
// storage and repoints the views at it, in a header array of r's own
// (ownTuples), so a SortedView taken before keeps the mapped rows. The snapshot file's bytes are
// never written; every holder of pre-mutation row ids was invalidated by
// this same mutation, exactly as on the heap path, so the delta-log and
// refresh machinery above sees no difference between backings.
func (r *Relation) promoteLocked() {
	r.mapped = false
	a := r.Arity
	if a == 0 {
		r.slabPtr.Store(nil)
		return
	}
	r.ownTuples()
	s := Slab{arity: a, data: make([]Value, len(r.Tuples)*a)}
	for i, t := range r.Tuples {
		copy(s.data[i*a:(i+1)*a], t)
		r.Tuples[i] = s.Row(int32(i))
	}
	r.slabPtr.Store(&s)
}

// logDelta appends one record to the bounded delta log (r.mu held). The
// slices are copied: callers keep ownership of theirs.
func (r *Relation) logDelta(ins, del []Tuple) {
	g := r.gen.Load()
	n := len(ins) + len(del)
	if n > maxDeltaTuples {
		// One oversized mutation: replaying it would cost as much as a
		// re-Bind, so drop the log and move the horizon past it.
		r.deltas = nil
		r.deltaSize = 0
		r.deltaFloor = g
		return
	}
	rec := deltaRecord{gen: g}
	if len(ins) > 0 {
		rec.ins = append([]Tuple(nil), ins...)
	}
	if len(del) > 0 {
		rec.del = append([]Tuple(nil), del...)
	}
	r.deltas = append(r.deltas, rec)
	r.deltaSize += n
	for len(r.deltas) > maxDeltaRecords || r.deltaSize > maxDeltaTuples {
		old := r.deltas[0]
		r.deltaSize -= len(old.ins) + len(old.del)
		r.deltaFloor = old.gen
		r.deltas = r.deltas[1:]
	}
}

// EnableDeltaLog starts recording per-generation multiset deltas.
// Logging is off by default — mutations on relations never bound into a
// refreshable plan pay nothing — and plan binding switches it on for the
// relations a statement reads. Deltas are available from the relation's
// current generation onward; enabling an already-logging relation is a
// no-op, so statements bound at different generations share one log.
func (r *Relation) EnableDeltaLog() {
	r.mu.Lock()
	if !r.logDeltas {
		r.logDeltas = true
		r.deltaFloor = r.gen.Load()
	}
	r.mu.Unlock()
}

// DeltaSince returns the multiset difference between the relation's
// contents at generation gen and its current contents. ok is false when
// the delta is unavailable — logging is off, gen predates the log's
// bounded horizon, or gen never belonged to this relation's history —
// and the caller must fall back to reading the full relation. The
// current generation yields an empty delta.
func (r *Relation) DeltaSince(gen uint64) (Delta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.gen.Load()
	if gen == cur {
		return Delta{}, true
	}
	if !r.logDeltas || gen > cur || gen < r.deltaFloor {
		return Delta{}, false
	}
	var d Delta
	for _, rec := range r.deltas {
		if rec.gen <= gen {
			continue
		}
		d.Ins = append(d.Ins, rec.ins...)
		d.Del = append(d.Del, rec.del...)
	}
	return d, true
}

// InsertBatch appends a batch of tuples as one mutation: indexes and
// slabs are invalidated once and the generation advances once, however
// large the batch. Bulk loads (FromTuples, core.LoadFacts) route through
// it so an N-tuple load is one generation step, not N — a warm plan over
// other relations is staled once instead of N times, and the delta log
// holds one record instead of N. Tuples are appended in order;
// duplicates are permitted, as with Insert. An empty batch is a no-op.
func (r *Relation) InsertBatch(ts []Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	for _, t := range ts {
		if len(t) != r.Arity {
			return fmt.Errorf("database: relation %s has arity %d, got tuple of length %d", r.Name, r.Arity, len(t))
		}
	}
	if len(r.Tuples)+len(ts) > maxRows {
		return fmt.Errorf("database: relation %s is full: row ids are int32, max %d rows", r.Name, maxRows)
	}
	r.Tuples = append(r.Tuples, ts...)
	r.mutate(ts, nil, false)
	return nil
}

// Delete removes every occurrence of t from the relation, reporting
// whether anything was removed. Deleting an absent tuple is a no-op: the
// generation does not advance, so warm plans are not staled spuriously.
func (r *Relation) Delete(t Tuple) bool {
	return r.DeleteBatch([]Tuple{t}) > 0
}

// DeleteBatch removes every occurrence of each tuple in ts as one
// mutation (at most one generation bump), returning the number of
// removed occurrences. Tuples not present, or of the wrong arity, are
// ignored. The surviving tuples keep their relative order, so a sorted
// relation stays sorted.
func (r *Relation) DeleteBatch(ts []Tuple) int {
	if len(ts) == 0 || len(r.Tuples) == 0 {
		return 0
	}
	cols := identityCols(r.Arity)
	drop := NewKeyMap(cols)
	for _, t := range ts {
		if len(t) == r.Arity {
			drop.Intern(t)
		}
	}
	if drop.Len() == 0 {
		return 0
	}
	// Rows before the first removed one stay where they are, so a miss
	// writes nothing.
	first := 0
	for first < len(r.Tuples) && drop.Find(r.Tuples[first], cols) < 0 {
		first++
	}
	if first == len(r.Tuples) {
		return 0
	}
	r.ownTuples()
	var removed []Tuple
	kept := r.Tuples[:first]
	for _, t := range r.Tuples[first:] {
		if drop.Find(t, cols) >= 0 {
			removed = append(removed, t)
		} else {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(r.Tuples); i++ {
		r.Tuples[i] = nil // release removed tuples held by the backing array
	}
	wasSorted := r.sorted
	r.Tuples = kept
	r.mutate(nil, removed, wasSorted)
	return len(removed)
}
