package database

// Allocation pins for the bind-time relational operations: their outputs
// are exactly sized, and none allocates per row.

import (
	"runtime"
	"testing"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the average number of
// heap bytes one call of f allocates, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// allocRelation has n rows (i, i mod keys): column 1 holds keys distinct
// values, the pair n.
func allocRelation(n, keys int) *Relation {
	r := NewRelation("R", 2)
	for i := 0; i < n; i++ {
		r.InsertValues(Value(i), Value(i%keys))
	}
	return r
}

// TestProjectAllocs pins Project at no per-row allocation: the output is
// exactly sized, and a grouping of 2¹² rows costs at most a handful more
// allocations than one of 2¹⁰: the table and the first-row list grow by
// doubling, so four times the keys cost a few more growths.
func TestProjectAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cols []int
		keys func(n int) int
	}{
		{"few keys", []int{1}, func(int) int { return 32 }},
		{"many keys", []int{0, 1}, func(n int) int { return n }},
	} {
		var allocs [2]float64
		for i, n := range []int{1 << 10, 1 << 12} {
			r := allocRelation(n, 32)
			var out *Relation
			allocs[i] = testing.AllocsPerRun(10, func() { out = r.Project("P", tc.cols) })
			if want := tc.keys(n); out.Len() != want || cap(out.Tuples) != want {
				t.Fatalf("n=%d %s: len %d cap %d, want %d", n, tc.name, out.Len(), cap(out.Tuples), want)
			}
		}
		if allocs[1] > allocs[0]+8 {
			t.Errorf("%s: %v allocs/run at 2^10 rows, %v at 2^12", tc.name, allocs[0], allocs[1])
		}
	}
}

// TestSelectAllocs pins Select at its output: the relation and one exactly
// sized row-header array.
func TestSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratches at random")
	}
	for _, n := range []int{1 << 10, 1 << 16} {
		r := allocRelation(n, 32)
		var out *Relation
		allocs := testing.AllocsPerRun(10, func() {
			out = r.Select("S", func(t Tuple) bool { return t[1] == 3 })
		})
		if out.Len() != n/32 || cap(out.Tuples) != n/32 {
			t.Fatalf("n=%d: len %d cap %d, want %d", n, out.Len(), cap(out.Tuples), n/32)
		}
		if allocs != 2 {
			t.Errorf("n=%d: %v allocs/run, want 2 (relation, row headers)", n, allocs)
		}
	}
}

// TestSortedViewAllocs: a view shares its base's row headers and slab, so
// it costs the same allocations, and the same bytes, at 2¹⁰ rows as at
// 2¹⁶.
func TestSortedViewAllocs(t *testing.T) {
	var allocs, bytes [2]float64
	for i, n := range []int{1 << 10, 1 << 16} {
		r := allocRelation(n, 32)
		r.Dedup()
		view := func() {
			if _, ok := r.SortedView("V"); !ok {
				t.Fatal("a deduplicated relation has no sorted view")
			}
		}
		allocs[i] = testing.AllocsPerRun(20, view)
		bytes[i] = bytesPerRun(20, view)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("SortedView: %v allocs/run at 2^10 rows, %v at 2^16", allocs[0], allocs[1])
	}
	// A per-row copy costs 24 bytes a row: 1.5 MB more at 2^16 than at 2^10.
	if bytes[1] > bytes[0]+1024 {
		t.Errorf("SortedView: %.0f B/run at 2^10 rows, %.0f at 2^16", bytes[0], bytes[1])
	}
}
