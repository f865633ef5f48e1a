package database_test

// Micro-benchmarks for the index/probe layer: index construction, point
// lookups, projection, selection, atom views, and the semijoin built on
// them. Run with -benchmem; the lookup path is pinned allocation-free by
// TestLookupAllocs, and cmd/benchgate compares these numbers across
// branches in CI.

import (
	"math/rand"
	"testing"

	"repro/internal/database"
)

// benchRelation builds a deduplicated binary relation of about n tuples
// over a domain of dom values per column.
func benchRelation(name string, seed int64, n, dom int) *database.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := database.NewRelation(name, 2)
	for i := 0; i < n; i++ {
		r.InsertValues(database.Value(1+rng.Intn(dom)), database.Value(1+rng.Intn(dom)))
	}
	r.Dedup()
	return r
}

// freshView returns a relation sharing r's tuples but none of its cached
// indexes, so per-iteration index builds are really measured.
func freshView(r *database.Relation) *database.Relation {
	v := database.NewRelation(r.Name, r.Arity)
	v.Tuples = r.Tuples
	return v
}

const (
	benchN   = 1 << 16
	benchDom = 1 << 15
)

func BenchmarkIndexBuild(b *testing.B) {
	r := benchRelation("R", 1, benchN, benchDom)
	b.SetBytes(int64(r.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshView(r).IndexOn([]int{0})
	}
}

// BenchmarkIndexBuildFewKeys is BenchmarkIndexBuild over 2¹⁶ rows that
// share 2⁵ keys: the table stays small while the buckets grow long.
func BenchmarkIndexBuildFewKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := database.NewRelation("R", 2)
	for i := 0; i < benchN; i++ {
		r.InsertValues(database.Value(rng.Intn(1<<5)), database.Value(i))
	}
	b.SetBytes(int64(r.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshView(r).IndexOn([]int{0})
	}
}

var projectSink *database.Relation

// BenchmarkProject projects 2¹⁶ rows onto one column holding 2¹⁰ distinct
// values, and onto both columns, which keeps all 2¹⁶ rows.
func BenchmarkProject(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := database.NewRelation("R", 2)
	for i := 0; i < benchN; i++ {
		r.InsertValues(database.Value(i), database.Value(rng.Intn(1<<10)))
	}
	for _, bc := range []struct {
		name string
		cols []int
	}{{"keys=1024", []int{1}}, {"keys=65536", []int{0, 1}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(r.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				projectSink = r.Project("P", bc.cols)
			}
		})
	}
}

var viewSink *database.Relation

// BenchmarkSortedView takes a plain atom's view of a sorted 2¹⁶-row base:
// a row-by-row order check and two small allocations, whatever the row
// count (the rows and the slab are shared, not copied).
func BenchmarkSortedView(b *testing.B) {
	r := benchRelation("R", 1, benchN, benchDom)
	r.Slab()
	b.SetBytes(int64(r.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewSink, _ = r.SortedView("V")
	}
}

// BenchmarkSelect keeps the rows of a 2¹⁶-row relation whose first column
// is even, about half of them, in one exactly sized header array.
func BenchmarkSelect(b *testing.B) {
	r := benchRelation("R", 1, benchN, benchDom)
	even := func(t database.Tuple) bool { return t[0]%2 == 0 }
	b.SetBytes(int64(r.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewSink = r.Select("S", even)
	}
}

func BenchmarkLookup(b *testing.B) {
	r := benchRelation("R", 1, benchN, benchDom)
	probes := benchRelation("P", 2, 4096, benchDom)
	ix := r.IndexOn([]int{0})
	cols := []int{0}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		t := probes.Tuples[i%probes.Len()]
		if len(ix.Lookup(t, cols)) > 0 {
			hits++
		}
	}
	_ = hits
}

func BenchmarkSemijoin(b *testing.B) {
	r := benchRelation("R", 1, benchN, benchDom)
	s := benchRelation("S", 2, benchN, benchDom)
	b.SetBytes(int64(r.Len() + s.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		database.Semijoin(freshView(r), []int{1}, freshView(s), []int{0})
	}
}

// BenchmarkSemijoinScalar and BenchmarkSemijoinBatch measure the same
// warm semijoin (index and slab prebuilt, probe pass + output assembly
// timed) on the scalar and the vectorized kernel; their ratio is the
// batching speedup that E22 sweeps across data shapes.
func BenchmarkSemijoinScalar(b *testing.B) {
	r := benchRelation("R", 1, benchN, benchDom)
	s := benchRelation("S", 2, benchN, benchDom)
	s.IndexOn([]int{0})
	b.SetBytes(int64(r.Len() + s.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		database.SemijoinScalar(r, []int{1}, s, []int{0})
	}
}

func BenchmarkSemijoinBatch(b *testing.B) {
	r := benchRelation("R", 1, benchN, benchDom)
	s := benchRelation("S", 2, benchN, benchDom)
	s.IndexOn([]int{0})
	b.SetBytes(int64(r.Len() + s.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		database.Semijoin(r, []int{1}, s, []int{0})
	}
}

// BenchmarkLookupBatch pins the warm batched probe path itself: tables and
// scratch buffers prebuilt, zero allocs/op (the batch analogue of
// BenchmarkLookup's pinned scalar probe).
func BenchmarkLookupBatch(b *testing.B) {
	r := benchRelation("R", 1, benchN, benchDom)
	s := benchRelation("S", 2, benchN, benchDom)
	ix := s.IndexOn([]int{0})
	sl := r.Slab()
	sc := database.GetScratch()
	defer sc.Release()
	cols := []int{1}
	ix.ContainsBatch(sl, cols, sc.Iota(r.Len()), sc) // warm tables and buffers
	b.SetBytes(int64(r.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.ContainsBatch(sl, cols, sc.Iota(r.Len()), sc)
	}
}

func BenchmarkJoin(b *testing.B) {
	r := benchRelation("R", 1, benchN/4, benchDom)
	s := benchRelation("S", 2, benchN/4, benchDom)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		database.Join("J", freshView(r), []int{1}, freshView(s), []int{0})
	}
}
