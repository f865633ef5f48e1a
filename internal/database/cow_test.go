package database

// SortedView shares its base's row-header array; these tests check that
// every in-place writer copies the array before writing, so the other
// side of a view never sees the write.

import (
	"testing"
	"unsafe"
)

// sideState is what a write on the other side of a view must leave alone:
// a deep copy of the rows in order, the generation, the sorted flag, and
// the slab's backing array.
type sideState struct {
	rows   []Tuple
	gen    uint64
	sorted bool
	slab   []Value
	data   unsafe.Pointer
}

func captureSide(r *Relation) sideState {
	st := sideState{gen: r.Generation(), sorted: r.Sorted()}
	for _, t := range r.Tuples {
		st.rows = append(st.rows, t.Clone())
	}
	if sl := r.Slab(); len(sl.data) > 0 {
		st.slab = append([]Value(nil), sl.data...)
		st.data = unsafe.Pointer(unsafe.SliceData(sl.data))
	}
	return st
}

func checkSide(t *testing.T, what string, r *Relation, want sideState) {
	t.Helper()
	if g := r.Generation(); g != want.gen {
		t.Errorf("%s: generation %d, was %d", what, g, want.gen)
	}
	if s := r.Sorted(); s != want.sorted {
		t.Errorf("%s: sorted %v, was %v", what, s, want.sorted)
	}
	if len(r.Tuples) != len(want.rows) {
		t.Fatalf("%s: %d rows, was %d", what, len(r.Tuples), len(want.rows))
	}
	for i, row := range r.Tuples {
		if !row.Equal(want.rows[i]) {
			t.Fatalf("%s: row %d is %v, was %v", what, i, row, want.rows[i])
		}
	}
	sl := r.Slab()
	if unsafe.Pointer(unsafe.SliceData(sl.data)) != want.data || len(sl.data) != len(want.slab) {
		t.Fatalf("%s: slab replaced", what)
	}
	for i, v := range sl.data {
		if v != want.slab[i] {
			t.Fatalf("%s: slab value %d is %d, was %d", what, i, v, want.slab[i])
		}
	}
}

// cowBase is a sorted, duplicate-free relation over the rows (i, i%3),
// built by appends so its header array has spare capacity, with its slab
// built.
func cowBase() *Relation {
	r := NewRelation("R", 2)
	for i := 0; i < 12; i++ {
		r.InsertValues(Value(i), Value(i%3))
	}
	r.Dedup()
	r.Slab()
	return r
}

// cowMappedBase is cowBase's rows installed as a mapped snapshot relation.
func cowMappedBase(t *testing.T) *Relation {
	src := cowBase()
	r, err := FromSlab(SlabSpec{Name: "R", Arity: 2, Rows: src.Len(),
		Data: append([]Value(nil), src.Slab().data...), Sorted: true, Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSortedViewCopyOnWrite(t *testing.T) {
	cases := []struct {
		name   string
		base   func(*testing.T) *Relation
		onView bool // write the view and check the base, not the reverse
		write  func(*testing.T, *Relation)
	}{
		{"Sort after Insert", nil, false, func(t *testing.T, r *Relation) {
			r.InsertValues(-1, 0)
			r.Sort()
		}},
		{"Sort after Insert on the view", nil, true, func(t *testing.T, r *Relation) {
			r.InsertValues(-1, 0)
			r.Sort()
		}},
		{"Dedup with a duplicate", nil, false, func(t *testing.T, r *Relation) {
			// A new middle row, so that the result differs from the
			// shared rows at every position after it.
			r.Insert(r.Tuples[4].Clone())
			r.InsertValues(3, 9)
			r.Dedup()
			if r.Len() != 13 {
				t.Fatalf("%d rows after Dedup, want 13", r.Len())
			}
		}},
		{"Dedup with a duplicate on the view", nil, true, func(t *testing.T, r *Relation) {
			// A new middle row, so that the result differs from the
			// shared rows at every position after it.
			r.Insert(r.Tuples[4].Clone())
			r.InsertValues(3, 9)
			r.Dedup()
			if r.Len() != 13 {
				t.Fatalf("%d rows after Dedup, want 13", r.Len())
			}
		}},
		{"DeleteBatch", nil, false, func(t *testing.T, r *Relation) {
			if n := r.DeleteBatch([]Tuple{{2, 2}, {7, 1}}); n != 2 {
				t.Fatalf("deleted %d rows, want 2", n)
			}
		}},
		{"InsertBatch into spare capacity", nil, false, func(t *testing.T, r *Relation) {
			if len(r.Tuples) == cap(r.Tuples) {
				t.Fatal("the base has no spare capacity")
			}
			if err := r.InsertBatch([]Tuple{{20, 0}}); err != nil {
				t.Fatal(err)
			}
			r.Dedup()
		}},
		{"first mutation of a mapped base (Insert)", cowMappedBase, false, func(t *testing.T, r *Relation) {
			r.InsertValues(20, 1)
			if r.Mapped() {
				t.Fatal("still mapped after a mutation")
			}
		}},
		{"first mutation of a mapped base (DeleteBatch)", cowMappedBase, false, func(t *testing.T, r *Relation) {
			r.DeleteBatch([]Tuple{{0, 0}})
			if r.Mapped() {
				t.Fatal("still mapped after a mutation")
			}
		}},
		{"DeleteBatch on the view", nil, true, func(t *testing.T, r *Relation) {
			if n := r.DeleteBatch([]Tuple{{5, 2}}); n != 1 {
				t.Fatalf("deleted %d rows, want 1", n)
			}
		}},
		{"InsertBatch on the view", nil, true, func(t *testing.T, r *Relation) {
			if err := r.InsertBatch([]Tuple{{3, 1}, {30, 0}}); err != nil {
				t.Fatal(err)
			}
			r.Dedup()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base *Relation
			if tc.base != nil {
				base = tc.base(t)
			} else {
				base = cowBase()
			}
			view, ok := base.SortedView("V")
			if !ok {
				t.Fatal("no sorted view")
			}
			writer, other, what := base, view, "view"
			if tc.onView {
				writer, other, what = view, base, "base"
			}
			before := captureSide(other)
			wrote := captureSide(writer)
			tc.write(t, writer)
			checkSide(t, what, other, before)
			if writer.Generation() == wrote.gen {
				t.Errorf("the write left the writer's generation at %d", wrote.gen)
			}
			// A second view of the written side shares again and must
			// leave the first view alone too.
			if v2, ok := writer.SortedView("V2"); ok {
				v2.DeleteBatch(v2.Tuples[:1])
				checkSide(t, what, other, before)
			}
		})
	}
}

// TestDedupWritesNothingWhenClean: Dedup on a sorted, duplicate-free
// relation (every relation a SortedView is taken from) reads its rows and
// writes none, so it keeps the shared header array and the generation.
func TestDedupWritesNothingWhenClean(t *testing.T) {
	base := cowBase()
	view, _ := base.SortedView("V")
	g := base.Generation()
	base.Dedup()
	view.Dedup()
	if base.Generation() != g || view.Generation() != 0 {
		t.Errorf("a clean Dedup advanced a generation")
	}
	if unsafe.SliceData(base.Tuples) != unsafe.SliceData(view.Tuples) {
		t.Errorf("a clean Dedup copied the shared row headers")
	}
}
