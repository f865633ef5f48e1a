package database

// A SortedView reads its base's index cache while neither side has
// mutated, and remembers its strict-ascent check per base generation.

import (
	"sync"
	"testing"
)

func TestViewReadsBaseIndex(t *testing.T) {
	for _, backing := range []struct {
		name string
		base func(t *testing.T) *Relation
	}{
		{"heap", func(*testing.T) *Relation { return cowBase() }},
		{"mmap", cowMappedBase},
	} {
		t.Run(backing.name, func(t *testing.T) {
			base := backing.base(t)
			view, ok := base.SortedView("V")
			if !ok {
				t.Fatal("no sorted view")
			}
			cols := []int{1}
			ix := view.IndexOn(cols)
			if base.IndexOn(cols) != ix {
				t.Fatal("the view built its own index over an unchanged base")
			}
			if again, _ := base.SortedView("V2"); again.IndexOn(cols) != ix {
				t.Error("a second view does not read the base's index")
			}
			if got := view.IndexOn(cols).Lookup(Tuple{0, 2}, cols); len(got) != 4 {
				t.Errorf("lookup of 2 through the shared index: %d rows, want 4", len(got))
			}

			// After a base insert the view's rows are no longer the base's:
			// it builds, and then keeps, an index of its own.
			base.Insert(Tuple{100, 2})
			own := view.IndexOn(cols)
			if own == ix || own == base.IndexOn(cols) {
				t.Fatal("the view reads a base index after the base mutated")
			}
			if view.IndexOn(cols) != own {
				t.Error("the view's own index is not cached")
			}
			if got := own.Lookup(Tuple{0, 2}, cols); len(got) != 4 {
				t.Errorf("lookup of 2 in the view's own index: %d rows, want 4", len(got))
			}
			if got := base.IndexOn(cols).Lookup(Tuple{0, 2}, cols); len(got) != 5 {
				t.Errorf("lookup of 2 in the base's new index: %d rows, want 5", len(got))
			}

			// A view that mutates reads its own rows, though its base did not.
			fresh, ok := base.SortedView("W")
			if !ok {
				base.Dedup()
				fresh, _ = base.SortedView("W")
			}
			shared := base.IndexOn(cols)
			if fresh.IndexOn(cols) != shared {
				t.Fatal("a fresh view does not read the base's index")
			}
			fresh.Insert(Tuple{200, 2})
			if ix := fresh.IndexOn(cols); ix == shared || len(ix.Lookup(Tuple{0, 2}, cols)) != 6 {
				t.Error("a mutated view still reads its base's index")
			}
		})
	}
}

// TestViewIndexSharedConcurrently: views of one base asking for one index
// at once all get the one index the base caches.
func TestViewIndexSharedConcurrently(t *testing.T) {
	base := cowBase()
	const workers = 8
	got := make([]*Index, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, ok := base.SortedView("V")
			if !ok {
				t.Error("no sorted view")
				return
			}
			got[w] = v.IndexOn([]int{1, 0})
		}()
	}
	wg.Wait()
	want := base.IndexOn([]int{1, 0})
	for w, ix := range got {
		if ix != want {
			t.Errorf("worker %d: got %p, want the base's index %p", w, ix, want)
		}
	}
}

func TestSortedViewAscentMemo(t *testing.T) {
	base := cowBase()
	if _, ok := base.SortedView("V"); !ok {
		t.Fatal("no sorted view")
	}
	// The outcome is kept for the generation: a reorder behind the
	// mutation funnel's back goes unseen, so the rows were not read again.
	base.Tuples[0], base.Tuples[1] = base.Tuples[1], base.Tuples[0]
	if _, ok := base.SortedView("V"); !ok {
		t.Error("the strict-ascent check ran again at an unchanged generation")
	}
	base.Tuples[0], base.Tuples[1] = base.Tuples[1], base.Tuples[0]

	// A mutation runs it again: the appended duplicate keeps the order, so
	// Sort only sets the flag, and the view must still be refused.
	last := base.Tuples[len(base.Tuples)-1].Clone()
	base.Insert(last)
	base.Sort()
	if !base.Sorted() {
		t.Fatal("Sort left the flag unset")
	}
	if _, ok := base.SortedView("V"); ok {
		t.Error("a view over a duplicate after the mutation")
	}
	base.Dedup()
	if _, ok := base.SortedView("V"); !ok {
		t.Error("no view after Dedup removed the duplicate")
	}
}
