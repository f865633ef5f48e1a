package database

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func tuplesEqual(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func sortTuples(ts []Tuple) []Tuple {
	out := append([]Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// TestDeltaLogWindow: DeltaSince reconstructs the multiset difference for
// any generation inside the logged window, and reports unavailability
// outside it.
func TestDeltaLogWindow(t *testing.T) {
	r := NewRelation("R", 2)
	r.InsertValues(1, 1)

	// Before EnableDeltaLog nothing is recorded.
	g0 := r.Generation()
	r.InsertValues(2, 2)
	if _, ok := r.DeltaSince(g0); ok {
		t.Fatal("DeltaSince available before EnableDeltaLog")
	}

	r.EnableDeltaLog()
	base := r.Generation()
	if d, ok := r.DeltaSince(base); !ok || !d.Empty() {
		t.Fatalf("DeltaSince(current) = %v, %v; want empty, true", d, ok)
	}
	// Generations before the enable point are outside the horizon.
	if _, ok := r.DeltaSince(g0); ok {
		t.Fatal("DeltaSince available for a generation before EnableDeltaLog")
	}

	r.InsertValues(3, 3)
	mid := r.Generation()
	r.Insert(Tuple{3, 3}) // duplicate occurrence: logged again
	if !r.Delete(Tuple{1, 1}) {
		t.Fatal("Delete(1,1) found nothing")
	}

	d, ok := r.DeltaSince(base)
	if !ok {
		t.Fatal("DeltaSince(base) unavailable")
	}
	if !tuplesEqual(sortTuples(d.Ins), []Tuple{{3, 3}, {3, 3}}) {
		t.Errorf("Ins = %v, want two occurrences of (3,3)", d.Ins)
	}
	if !tuplesEqual(d.Del, []Tuple{{1, 1}}) {
		t.Errorf("Del = %v, want [(1,1)]", d.Del)
	}

	d, ok = r.DeltaSince(mid)
	if !ok {
		t.Fatal("DeltaSince(mid) unavailable")
	}
	if !tuplesEqual(d.Ins, []Tuple{{3, 3}}) || !tuplesEqual(d.Del, []Tuple{{1, 1}}) {
		t.Errorf("DeltaSince(mid) = %+v, want Ins=[(3,3)] Del=[(1,1)]", d)
	}

	// A second EnableDeltaLog must not reset the window: an older
	// statement's bind generation stays answerable.
	r.EnableDeltaLog()
	if _, ok := r.DeltaSince(base); !ok {
		t.Fatal("re-enabling the delta log truncated the window")
	}

	// A future generation is not part of this relation's history.
	if _, ok := r.DeltaSince(r.Generation() + 5); ok {
		t.Fatal("DeltaSince accepted a future generation")
	}
}

// TestDeltaLogReorderOnly: a real Sort changes row order but not the
// tuple set, so the generation advances with an EMPTY delta — set-level
// consumers see no change, row-id holders still notice.
func TestDeltaLogReorderOnly(t *testing.T) {
	r := NewRelation("R", 1)
	r.InsertValues(5)
	r.InsertValues(1)
	r.EnableDeltaLog()
	g := r.Generation()
	r.Sort()
	if r.Generation() != g+1 {
		t.Fatalf("reordering Sort advanced generation by %d, want 1", r.Generation()-g)
	}
	d, ok := r.DeltaSince(g)
	if !ok || !d.Empty() {
		t.Fatalf("DeltaSince over a reorder-only Sort = %+v, %v; want empty, true", d, ok)
	}
}

// TestDeltaLogBounded: the log trims its oldest records under the tuple
// and record bounds, moving the horizon forward; an oversized single
// mutation truncates the log entirely.
func TestDeltaLogBounded(t *testing.T) {
	r := NewRelation("R", 1)
	r.EnableDeltaLog()
	base := r.Generation()
	for i := 0; i < maxDeltaRecords+10; i++ {
		r.InsertValues(Value(i))
	}
	if len(r.deltas) > maxDeltaRecords {
		t.Fatalf("log holds %d records, bound is %d", len(r.deltas), maxDeltaRecords)
	}
	if _, ok := r.DeltaSince(base); ok {
		t.Fatal("DeltaSince answered from beyond the trimmed horizon")
	}
	if _, ok := r.DeltaSince(r.deltaFloor); !ok {
		t.Fatal("DeltaSince unavailable at the advertised floor")
	}

	// One mutation larger than the whole budget: log truncated, only the
	// current generation remains answerable.
	big := make([]Tuple, maxDeltaTuples+1)
	for i := range big {
		big[i] = Tuple{Value(i + 100000)}
	}
	gPrev := r.Generation()
	if err := r.InsertBatch(big); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.DeltaSince(gPrev); ok {
		t.Fatal("DeltaSince answered across an oversized mutation")
	}
	if d, ok := r.DeltaSince(r.Generation()); !ok || !d.Empty() {
		t.Fatal("current generation unanswerable after truncation")
	}
}

// TestDeleteBatchSemantics: every occurrence of each listed tuple goes,
// order of survivors is preserved, wrong-arity and absent tuples are
// ignored, and sortedness survives.
func TestDeleteBatchSemantics(t *testing.T) {
	r := NewRelation("R", 2)
	for _, t2 := range []Tuple{{1, 1}, {2, 2}, {1, 1}, {3, 3}, {2, 2}} {
		r.Insert(t2)
	}
	n := r.DeleteBatch([]Tuple{{1, 1}, {9, 9}, {2, 2, 2}})
	if n != 2 {
		t.Fatalf("DeleteBatch removed %d occurrences, want 2", n)
	}
	if !tuplesEqual(r.Tuples, []Tuple{{2, 2}, {3, 3}, {2, 2}}) {
		t.Fatalf("survivors = %v, want order-preserving [(2,2),(3,3),(2,2)]", r.Tuples)
	}

	r.Dedup()
	if !r.sorted {
		t.Fatal("not sorted after Dedup")
	}
	r.DeleteBatch([]Tuple{{2, 2}})
	if !r.sorted {
		t.Fatal("delete from a sorted relation cleared the sorted flag")
	}
	if !r.Contains(Tuple{3, 3}) || r.Contains(Tuple{2, 2}) {
		t.Fatal("binary-search Contains wrong after sorted delete")
	}
}

// TestDeleteBatchAllocs pins DeleteBatch's allocations independent of the
// relation's size: stored rows are matched against a KeyMap of the targets,
// not keyed one by one.
func TestDeleteBatchAllocs(t *testing.T) {
	allocs := func(n int) (hit, miss float64) {
		r := NewRelation("R", 2)
		for i := 0; i < n; i++ {
			r.InsertValues(Value(i), Value(i%7))
		}
		tup := Tuple{Value(n), 3}
		hit = testing.AllocsPerRun(20, func() {
			r.Insert(tup)
			if r.DeleteBatch([]Tuple{tup}) != 1 {
				t.Fatal("DeleteBatch missed the inserted tuple")
			}
		})
		miss = testing.AllocsPerRun(20, func() {
			if r.DeleteBatch([]Tuple{{-1, -1}}) != 0 {
				t.Fatal("DeleteBatch removed an absent tuple")
			}
		})
		if r.Len() != n {
			t.Fatalf("relation has %d rows after the pairs, want %d", r.Len(), n)
		}
		return hit, miss
	}
	smallHit, smallMiss := allocs(1 << 6)
	bigHit, bigMiss := allocs(1 << 14)
	if bigHit != smallHit || bigMiss != smallMiss {
		t.Fatalf("allocs/op grow with the relation: insert+delete %v → %v, absent delete %v → %v",
			smallHit, bigHit, smallMiss, bigMiss)
	}
	if bigHit > 16 {
		t.Fatalf("insert+delete pair allocates %v objects, want a handful", bigHit)
	}
}

// TestIndexPatchEquivalence: an index patched through a random sequence of
// AddRow/RemoveRow answers every probe exactly like an index built from
// scratch over the final relation state.
func TestIndexPatchEquivalence(t *testing.T) {
	r := NewRelation("R", 2)
	for i := 0; i < 40; i++ {
		r.InsertValues(Value(i), Value(i%5))
	}
	r.Dedup()

	slab := r.Slab()
	ix := r.IndexOn([]int{1})

	// Tracked live rows: id -> alive. Patch in inserts and deletes.
	alive := make(map[int32]bool)
	for i := 0; i < r.Len(); i++ {
		alive[int32(i)] = true
	}
	// Delete every fourth row.
	for id := int32(0); id < int32(r.Len()); id += 4 {
		if !ix.RemoveRow(id) {
			t.Fatalf("RemoveRow(%d) did not find the row", id)
		}
		alive[id] = false
	}
	// Removing an absent row fails loudly (returns false).
	if ix.RemoveRow(0) {
		t.Error("RemoveRow of an already-removed row reported success")
	}
	// Insert new rows, including into existing buckets (key i%5) and a
	// brand-new bucket (key 99).
	for i := 0; i < 12; i++ {
		var id int32
		slab, id = slab.Append(Tuple{Value(100 + i), Value(i % 6 * 33 % 5)})
		ix.SetSlab(slab)
		ix.AddRow(id)
		alive[id] = true
	}
	var id99 int32
	slab, id99 = slab.Append(Tuple{Value(999), Value(99)})
	ix.SetSlab(slab)
	ix.AddRow(id99)
	alive[id99] = true

	// Reference: rebuild a relation from the alive rows and index it.
	ref := NewRelation("Ref", 2)
	for id, ok := range alive {
		if ok {
			ref.Insert(slab.Row(id).Clone())
		}
	}
	refIx := ref.IndexOn([]int{1})

	keys := map[Value]bool{}
	for id, ok := range alive {
		if ok {
			keys[slab.Row(id)[1]] = true
		}
	}
	keys[Value(2)] = true // possibly emptied bucket
	keys[Value(12345)] = true
	for k := range keys {
		probe := Tuple{0, k}
		got := ix.Lookup(probe, []int{1})
		want := refIx.Lookup(probe, []int{1})
		if len(got) != len(want) {
			t.Fatalf("key %d: patched index returns %d rows, rebuilt returns %d", k, len(got), len(want))
		}
		// Same multiset of tuples behind the ids.
		gt := make([]Tuple, len(got))
		wt := make([]Tuple, len(want))
		for i := range got {
			gt[i] = ix.Row(got[i])
			wt[i] = refIx.Row(want[i])
		}
		if !tuplesEqual(sortTuples(gt), sortTuples(wt)) {
			t.Fatalf("key %d: patched bucket %v != rebuilt bucket %v", k, gt, wt)
		}
	}

	// The batch kernels probe the same patched table: probing with every
	// slab row, removed ones included, agrees with the scalar path.
	sc := GetScratch()
	defer sc.Release()
	got := ix.ContainsBatch(slab, []int{1}, sc.Iota(slab.Len()), sc)
	var want []int32
	for id := int32(0); id < int32(slab.Len()); id++ {
		if ix.Contains(slab.Row(id), []int{1}) {
			want = append(want, id)
		}
	}
	if !sameIDs(got, want) {
		t.Fatalf("ContainsBatch after patching %v, scalar %v", got, want)
	}

	// Random AddRow/RemoveRow scripts against a brute-force key → rows
	// map, under the default hash and two degraded ones. Their
	// fingerprints home at a small table's last slot (and, for the
	// two-value hash, also at its first), so probe chains wrap past the
	// end and backward-shift deletion moves slots across the wrap.
	hashes := []struct {
		name string
		hash keyHashFunc
	}{
		{"default", nil},
		{"constant", func(Tuple, []int) uint64 { return ^uint64(0) }},
		{"twovalue", func(tu Tuple, cols []int) uint64 {
			if tu[cols[0]]&1 == 0 {
				return 0
			}
			return ^uint64(0)
		}},
	}
	for _, h := range hashes {
		for _, cols := range [][]int{{1}, {1, 2}} {
			t.Run(fmt.Sprintf("%s/cols=%d", h.name, len(cols)), func(t *testing.T) {
				for seed := int64(0); seed < 20; seed++ {
					patchScript(t, seed, h.hash, cols)
				}
			})
		}
	}
}

// patchScript builds a small index under hash, then patches it through
// 300 random AddRow/RemoveRow steps, checking every probe path against a
// brute-force map after each step.
func patchScript(t *testing.T, seed int64, hash keyHashFunc, cols []int) {
	t.Helper()
	const dom = 10
	rng := rand.New(rand.NewSource(seed))
	r := NewRelation("R", 3)
	for i := rng.Intn(6); i >= 0; i-- {
		r.InsertValues(Value(i), Value(rng.Intn(dom)), Value(rng.Intn(3)))
	}
	slab := r.Slab()
	ix := buildIndex(r.Tuples, cols, slab, hash)
	var alive, dead []int32 // live and removed row ids
	for id := int32(0); id < int32(r.Len()); id++ {
		alive = append(alive, id)
	}
	// One probe row per key value combination, and some absent keys.
	probes := NewRelation("P", 3)
	for a := 0; a < dom+2; a++ {
		for b := 0; b < 4; b++ {
			probes.InsertValues(0, Value(a), Value(b))
		}
	}
	for step := 0; step < 300; step++ {
		switch k := rng.Intn(9); {
		case len(alive) == 0 || k < 4:
			var id int32
			slab, id = slab.Append(Tuple{Value(100 + step), Value(rng.Intn(dom)), Value(rng.Intn(3))})
			ix.SetSlab(slab)
			ix.AddRow(id)
			alive = append(alive, id)
		case k < 8 || len(dead) == 0:
			j := rng.Intn(len(alive))
			if !ix.RemoveRow(alive[j]) {
				t.Fatalf("seed %d step %d: RemoveRow(%d) did not find a live row", seed, step, alive[j])
			}
			dead = append(dead, alive[j])
			alive = append(alive[:j], alive[j+1:]...)
		default:
			if id := dead[rng.Intn(len(dead))]; ix.RemoveRow(id) {
				t.Fatalf("seed %d step %d: RemoveRow(%d) of a removed row reported success", seed, step, id)
			}
		}
		checkPatched(t, fmt.Sprintf("seed %d step %d", seed, step), ix, alive, probes, cols)
	}
}

// checkPatched compares Lookup, LookupBatch, ContainsBatch and Buckets
// of a patched index with the brute-force grouping of its live rows.
func checkPatched(t *testing.T, at string, ix *Index, alive []int32, probes *Relation, cols []int) {
	t.Helper()
	want := map[string][]int32{}
	for _, id := range alive {
		k := ix.Row(id).Key(cols)
		want[k] = append(want[k], id)
	}
	if ix.Buckets() != len(want) {
		t.Fatalf("%s: Buckets() = %d, want %d keys", at, ix.Buckets(), len(want))
	}
	sc := GetScratch()
	defer sc.Release()
	psl := probes.Slab()
	batch := make([][]int32, probes.Len())
	ix.LookupBatch(psl, cols, sc.Iota(probes.Len()), sc, func(i int, ids []int32) { batch[i] = ids })
	var wantKeep []int32
	for i, p := range probes.Tuples {
		got := ix.Lookup(p, cols)
		w := want[p.Key(cols)]
		sorted := append([]int32(nil), got...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		if !sameIDs(sorted, w) {
			t.Fatalf("%s: Lookup(%v) = %v, want %v", at, p, got, w)
		}
		if !sameIDs(batch[i], got) {
			t.Fatalf("%s: LookupBatch(%v) = %v, Lookup %v", at, p, batch[i], got)
		}
		if len(w) > 0 {
			wantKeep = append(wantKeep, int32(i))
		}
	}
	if keep := ix.ContainsBatch(psl, cols, sc.Iota(probes.Len()), sc); !sameIDs(keep, wantKeep) {
		t.Fatalf("%s: ContainsBatch = %v, want %v", at, keep, wantKeep)
	}
}

// TestIndexPatchOverflow: patching stays exact across true fingerprint
// collisions (forced by a degenerate hash): colliding keys are separate
// slots on one probe chain, emptying a key's bucket backward-shifts the
// rest of the chain, and lookups remain key-exact.
func TestIndexPatchOverflow(t *testing.T) {
	r := NewRelation("R", 1)
	for i := 0; i < 8; i++ {
		r.InsertValues(Value(i % 4))
	}
	r.Dedup() // tuples: 0,1,2,3
	slab := r.Slab()
	collide := func(Tuple, []int) uint64 { return 42 }
	ix := buildIndex(r.Tuples, []int{0}, slab, collide)

	for k := Value(0); k < 4; k++ {
		if n := len(ix.Lookup(Tuple{k}, []int{0})); n != 1 {
			t.Fatalf("key %d: %d rows before patching, want 1", k, n)
		}
	}

	// Add a duplicate-keyed row and a new colliding key.
	var idDup, idNew int32
	slab, idDup = slab.Append(Tuple{2})
	ix.SetSlab(slab)
	ix.AddRow(idDup)
	slab, idNew = slab.Append(Tuple{7})
	ix.SetSlab(slab)
	ix.AddRow(idNew)

	if n := len(ix.Lookup(Tuple{2}, []int{0})); n != 2 {
		t.Fatalf("key 2 after duplicate add: %d rows, want 2", n)
	}
	if n := len(ix.Lookup(Tuple{7}, []int{0})); n != 1 {
		t.Fatalf("new colliding key 7: %d rows, want 1", n)
	}

	// Remove the key at the head of the chain entirely; the keys behind
	// it must stay reachable.
	for _, id := range append([]int32(nil), ix.Lookup(Tuple{0}, []int{0})...) {
		if !ix.RemoveRow(id) {
			t.Fatalf("RemoveRow(%d) failed", id)
		}
	}
	if n := len(ix.Lookup(Tuple{0}, []int{0})); n != 0 {
		t.Fatalf("key 0 after removal: %d rows, want 0", n)
	}
	for _, k := range []Value{1, 2, 3, 7} {
		if len(ix.Lookup(Tuple{k}, []int{0})) == 0 {
			t.Fatalf("key %d unreachable after removing the chain head", k)
		}
	}
	if ix.Buckets() != 4 {
		t.Fatalf("Buckets() = %d after removal, want 4", ix.Buckets())
	}
}

// TestInsertBatchArityAndCapacity: batch inserts validate arity up front
// (rejecting the whole batch) and respect the int32 row-id capacity.
func TestInsertBatchArityAndCapacity(t *testing.T) {
	r := NewRelation("R", 2)
	err := r.InsertBatch([]Tuple{{1, 2}, {3}})
	if err == nil {
		t.Fatal("InsertBatch accepted a wrong-arity tuple")
	}
	if r.Len() != 0 {
		t.Fatalf("failed batch left %d tuples behind", r.Len())
	}

	lowerMaxRows(t, 4)
	if err := r.InsertBatch([]Tuple{{1, 1}, {2, 2}, {3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertBatch([]Tuple{{4, 4}, {5, 5}}); err == nil {
		t.Fatal("InsertBatch exceeded maxRows without error")
	}
	if err := r.InsertBatch([]Tuple{{4, 4}}); err != nil {
		t.Fatalf("InsertBatch at exactly maxRows: %v", err)
	}
}
