package cq

import (
	"runtime"
	"testing"

	"repro/internal/database"
	"repro/internal/logic/logictest"
)

// TestAtomRelationBytesFlat: a plain atom over a sorted, duplicate-free
// base shares the base's rows (database.Relation.SortedView), so building
// it allocates the same bytes at 2¹⁰ rows as at 2¹⁶ — nothing per row.
func TestAtomRelationBytesFlat(t *testing.T) {
	atom := logictest.MustParseCQ("Q(x,y) :- E(x,y).").Atoms[0]
	var bytes [2]float64
	for i, n := range []int{1 << 10, 1 << 16} {
		e := database.NewRelation("E", 2)
		for v := 0; v < n; v++ {
			e.InsertValues(database.Value(v), database.Value(v%7))
		}
		e.Dedup()
		db := database.NewDatabase()
		db.AddRelation(e)
		build := func() {
			rel, err := AtomRelation(db, atom)
			if err != nil || rel.R.Len() != n {
				t.Fatalf("AtomRelation: %v rows (%v), want %d", rel.R.Len(), err, n)
			}
		}
		build() // warm: builds the base's slab
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			build()
		}
		runtime.ReadMemStats(&after)
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	// Copying the row headers would cost 24 bytes a row, 1.5 MB more at
	// 2^16 rows than at 2^10.
	if bytes[1] > bytes[0]+1024 {
		t.Errorf("AtomRelation: %.0f B/run at 2^10 rows, %.0f at 2^16", bytes[0], bytes[1])
	}
}
