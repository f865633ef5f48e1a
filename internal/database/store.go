package database

// The storage seam between relations and the out-of-core snapshot layer
// (internal/snapshot). A relation's columnar storage can come from two
// places: heap slices built by slabLocked (today's mutation-capable path),
// or read-only pages of an mmap-ed snapshot file installed wholesale via
// FromSlab. The seam is deliberately narrow — a spec struct in, a relation
// out, plus dump/restore of the CSR index layout and the dictionary — so
// the snapshot package never touches Relation internals and the engines
// never learn where their slabs live. Mapped relations promote themselves
// to heap storage on first mutation (see promoteLocked in mutate.go), so
// the delta-log/refresh machinery works unchanged on either backing.

import (
	"fmt"
	"sort"
)

// SlabSpec describes a relation to be installed from prebuilt columnar
// storage. Data holds the rows arity-strided (row i at Data[i*Arity:]);
// it may alias read-only mapped memory, in which case Mapped must be set
// so the relation copies it to heap before the first mutation. Gen seeds
// the relation's mutation counter, so a restored database reproduces the
// original's Generation and previously minted plans/cursors stay valid.
type SlabSpec struct {
	Name   string
	Arity  int
	Rows   int
	Data   []Value
	Sorted bool
	Mapped bool
	Gen    uint64
}

// FromSlab builds a relation directly over prebuilt columnar storage: the
// slab is installed as-is and the Tuples become views into it, exactly the
// layout slabLocked would have produced — so every engine, index build,
// and batch kernel runs unchanged over a restored relation. No tuple data
// is copied; a Mapped spec defers the copy to the first mutation.
func FromSlab(spec SlabSpec) (*Relation, error) {
	if spec.Arity < 0 || spec.Rows < 0 {
		return nil, fmt.Errorf("database: FromSlab %s: negative arity or rows", spec.Name)
	}
	if spec.Rows > maxRows {
		return nil, fmt.Errorf("database: FromSlab %s: %d rows; row ids are int32, max %d", spec.Name, spec.Rows, maxRows)
	}
	if len(spec.Data) != spec.Rows*spec.Arity {
		return nil, fmt.Errorf("database: FromSlab %s: %d values for %d rows of arity %d",
			spec.Name, len(spec.Data), spec.Rows, spec.Arity)
	}
	r := NewRelation(spec.Name, spec.Arity)
	r.Tuples = make([]Tuple, spec.Rows)
	if spec.Arity == 0 {
		// Arity-0 relations have no columnar payload; their tuples are the
		// empty tuple and the heap path handles them throughout.
		for i := range r.Tuples {
			r.Tuples[i] = Tuple{}
		}
	} else {
		sl := Slab{data: spec.Data, arity: spec.Arity, mapped: spec.Mapped}
		for i := range r.Tuples {
			r.Tuples[i] = sl.Row(int32(i))
		}
		r.slabPtr.Store(&sl)
		r.mapped = spec.Mapped
	}
	r.sorted = spec.Sorted
	r.gen.Store(spec.Gen)
	return r, nil
}

// Sorted reports whether the relation is known sorted (established by
// Sort/Dedup, cleared by inserts). The snapshot writer persists the flag
// so a restored relation keeps its binary-search Contains path.
func (r *Relation) Sorted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sorted
}

// Mapped reports whether the relation's storage still aliases read-only
// mapped snapshot pages. It flips to false on the first mutation, when the
// relation promotes itself to heap storage (copy-on-write).
func (r *Relation) Mapped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mapped
}

// StructuralGen returns the database's structural mutation counter (the
// AddRelation count that Generation shifts past the per-relation sum).
// The snapshot layer persists it so a restored database reproduces the
// original's Generation exactly.
func (db *Database) StructuralGen() uint64 { return db.mutGen.Load() }

// SetStructuralGen seeds the structural counter of a freshly restored
// database. It must only be called before the database is shared.
func (db *Database) SetStructuralGen(g uint64) { db.mutGen.Store(g) }

// Names returns the interned names in value order: Names()[i] is the name
// of Value(i+1). Persisting this slice and replaying it through
// DictionaryFromNames reproduces the dictionary with identical value ids.
func (d *Dictionary) Names() []string {
	return append([]string(nil), d.toName...)
}

// DictionaryFromNames rebuilds a dictionary from a Names slice, interning
// in order so value ids round-trip. A duplicated name is corruption (Intern
// never hands out two ids for one name) and is rejected.
func DictionaryFromNames(names []string) (*Dictionary, error) {
	d := NewDictionary()
	for _, n := range names {
		if _, ok := d.toValue[n]; ok {
			return nil, fmt.Errorf("database: dictionary restore: duplicate name %q", n)
		}
		d.toName = append(d.toName, n)
		d.toValue[n] = Value(len(d.toName))
	}
	return d, nil
}

// --- CSR index dump/restore -------------------------------------------

// IndexCSR is the serializable layout of a hash index: the
// bucket row array plus one (fingerprint, span) triple per bucket, sorted
// by fingerprint. A fingerprint that holds several distinct true keys (a
// real 64-bit collision, or a degraded test hash) appears once per key —
// the first occurrence restores as the primary bucket, the rest as its
// overflow chain, preserving probe order.
type IndexCSR struct {
	Cols []int
	Rows []int32
	FPs  []uint64
	Offs []int32
	Lens []int32
}

// DumpIndex builds a fresh index on cols with the default fingerprint and
// returns its CSR layout in deterministic (fingerprint-sorted) order. The
// build is not cached: snapshot writing must not perturb the relation's
// warm index cache, and a cached index may be test-hashed, which does not
// serialize.
func (r *Relation) DumpIndex(cols []int) IndexCSR {
	r.mu.Lock()
	sl := r.slabLocked()
	tuples := r.Tuples
	r.mu.Unlock()
	ix := buildIndex(tuples, cols, sl, nil)
	sh := &ix.state.Load().shard
	c := IndexCSR{
		Cols: append([]int(nil), cols...),
		Rows: append([]int32(nil), sh.rows...),
	}
	fps := make([]uint64, 0, len(sh.buckets))
	for fp := range sh.buckets {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		sp := sh.buckets[fp]
		c.FPs = append(c.FPs, fp)
		c.Offs = append(c.Offs, sp.off)
		c.Lens = append(c.Lens, sp.n)
		for _, osp := range sh.overflow[fp] {
			c.FPs = append(c.FPs, fp)
			c.Offs = append(c.Offs, osp.off)
			c.Lens = append(c.Lens, osp.n)
		}
	}
	return c
}

// RestoreIndex installs a prebuilt CSR layout (as produced by DumpIndex)
// into the relation's index cache, skipping the linear-time build. Bounds
// are validated — row ids must resolve inside the relation, spans inside
// the row array — so corrupt input yields an error, never a panic; the
// grouping itself is trusted, which is why the snapshot layer only calls
// this after the section checksum verifies. The restored index uses the
// default fingerprint and is indistinguishable from an IndexOn build.
func (r *Relation) RestoreIndex(c IndexCSR) error {
	for _, col := range c.Cols {
		if col < 0 || col >= r.Arity {
			return fmt.Errorf("database: restore index on %s: column %d out of arity %d", r.Name, col, r.Arity)
		}
	}
	if len(c.FPs) != len(c.Offs) || len(c.FPs) != len(c.Lens) {
		return fmt.Errorf("database: restore index on %s: bucket arrays disagree: %d/%d/%d",
			r.Name, len(c.FPs), len(c.Offs), len(c.Lens))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int32(len(r.Tuples))
	for _, id := range c.Rows {
		if id < 0 || id >= n {
			return fmt.Errorf("database: restore index on %s: row id %d out of %d rows", r.Name, id, n)
		}
	}
	sh := shard{buckets: make(map[uint64]span, len(c.FPs)), rows: append([]int32(nil), c.Rows...)}
	total := int32(0)
	for i, fp := range c.FPs {
		sp := span{c.Offs[i], c.Lens[i]}
		if sp.n < 1 || sp.off < 0 || int(sp.off)+int(sp.n) > len(c.Rows) {
			return fmt.Errorf("database: restore index on %s: span [%d,+%d) outside %d rows",
				r.Name, sp.off, sp.n, len(c.Rows))
		}
		total += sp.n
		if _, ok := sh.buckets[fp]; !ok {
			sh.buckets[fp] = sp
			continue
		}
		if sh.overflow == nil {
			sh.overflow = make(map[uint64][]span)
		}
		sh.overflow[fp] = append(sh.overflow[fp], sp)
	}
	if int(total) != len(c.Rows) {
		return fmt.Errorf("database: restore index on %s: spans cover %d of %d rows", r.Name, total, len(c.Rows))
	}
	ix := &Index{
		Cols: append([]int(nil), c.Cols...),
		slab: r.slabLocked(),
		hash: defaultKeyHash,
		fast: true,
	}
	ix.state.Store(&indexState{shard: sh})
	if sig, packed := colsSig(c.Cols); packed {
		if r.indexes == nil {
			r.indexes = make(map[uint64]*Index)
		}
		r.indexes[sig] = ix
	} else {
		if r.indexesBig == nil {
			r.indexesBig = make(map[string]*Index)
		}
		r.indexesBig[colsSigBig(c.Cols)] = ix
	}
	return nil
}
