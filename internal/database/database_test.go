package database

import (
	"testing"
	"testing/quick"
)

func TestTupleBasics(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone not equal")
	}
	b[0] = 9
	if a.Equal(b) {
		t.Fatalf("clone aliases original")
	}
	if a.Compare(Tuple{1, 2, 4}) != -1 {
		t.Errorf("compare lex order failed")
	}
	if a.Compare(Tuple{1, 2}) != 1 {
		t.Errorf("longer tuple should compare greater")
	}
	if a.Compare(Tuple{1, 2, 3}) != 0 {
		t.Errorf("equal tuples should compare 0")
	}
	if got := a.String(); got != "(1,2,3)" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Keys on the same column set must be injective.
	f := func(a, b int64, c, d int64) bool {
		t1 := Tuple{Value(a), Value(b)}
		t2 := Tuple{Value(c), Value(d)}
		k1 := t1.Key([]int{0, 1})
		k2 := t2.Key([]int{0, 1})
		return (k1 == k2) == t1.Equal(t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("R", 2)
	r.InsertValues(1, 2)
	r.InsertValues(3, 4)
	r.InsertValues(1, 2)
	r.InsertValues(0, 7)
	r.Dedup()
	if r.Len() != 3 {
		t.Fatalf("dedup: want 3 tuples, got %d", r.Len())
	}
	if !r.Tuples[0].Equal(Tuple{0, 7}) {
		t.Errorf("dedup should sort; first tuple = %v", r.Tuples[0])
	}
	if !r.Contains(Tuple{1, 2}) || r.Contains(Tuple{2, 1}) {
		t.Errorf("Contains wrong")
	}
}

func TestInsertArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on arity mismatch")
		}
	}()
	r := NewRelation("R", 2)
	r.Insert(Tuple{1})
}

func TestIndexLookup(t *testing.T) {
	r := NewRelation("R", 2)
	r.InsertValues(1, 10)
	r.InsertValues(1, 11)
	r.InsertValues(2, 20)
	ix := r.IndexOn([]int{0})
	if got := len(ix.Lookup(Tuple{1}, []int{0})); got != 2 {
		t.Errorf("lookup 1: want 2 tuples, got %d", got)
	}
	if got := len(ix.Lookup(Tuple{3}, []int{0})); got != 0 {
		t.Errorf("lookup 3: want 0 tuples, got %d", got)
	}
	if got, ok := lookupRow(ix, Tuple{2}, []int{0}); !ok || !got.Equal(Tuple{2, 20}) {
		t.Errorf("lookupRow 2: want (2,20), got %v ok=%v", got, ok)
	}
	if _, ok := lookupRow(ix, Tuple{9}, []int{0}); ok {
		t.Errorf("lookupRow 9: want miss")
	}
	if ix.Buckets() != 2 {
		t.Errorf("want 2 buckets, got %d", ix.Buckets())
	}
	// Index caching: same columns return the same index object.
	if r.IndexOn([]int{0}) != ix {
		t.Errorf("index not cached")
	}
	// Insert invalidates.
	r.InsertValues(3, 30)
	if r.IndexOn([]int{0}) == ix {
		t.Errorf("index not invalidated by insert")
	}
}

func TestProject(t *testing.T) {
	r := NewRelation("R", 3)
	r.InsertValues(1, 2, 3)
	r.InsertValues(1, 2, 4)
	r.InsertValues(5, 6, 7)
	p := r.Project("P", []int{0, 1})
	if p.Len() != 2 || p.Arity != 2 {
		t.Fatalf("projection wrong: %v", p.Tuples)
	}
	q := r.Project("Q", []int{2, 0})
	q.Sort()
	if !q.Tuples[0].Equal(Tuple{3, 1}) {
		t.Errorf("column reordering in projection failed: %v", q.Tuples)
	}
}

func TestSelect(t *testing.T) {
	r := NewRelation("R", 2)
	r.InsertValues(1, 1)
	r.InsertValues(1, 2)
	r.InsertValues(2, 2)
	s := r.Select("S", func(t Tuple) bool { return t[0] == t[1] })
	if s.Len() != 2 {
		t.Errorf("select diag: want 2, got %d", s.Len())
	}
}

func TestSemijoin(t *testing.T) {
	r := NewRelation("R", 2)
	r.InsertValues(1, 10)
	r.InsertValues(2, 20)
	r.InsertValues(3, 30)
	s := NewRelation("S", 2)
	s.InsertValues(10, 100)
	s.InsertValues(30, 300)
	out := Semijoin(r, []int{1}, s, []int{0})
	if out.Len() != 2 {
		t.Fatalf("semijoin: want 2 tuples, got %d", out.Len())
	}
	if out.Contains(Tuple{2, 20}) {
		t.Errorf("semijoin kept dangling tuple")
	}
}

func TestJoin(t *testing.T) {
	r := NewRelation("R", 2)
	r.InsertValues(1, 10)
	r.InsertValues(2, 20)
	s := NewRelation("S", 2)
	s.InsertValues(10, 100)
	s.InsertValues(10, 101)
	out := Join("J", r, []int{1}, s, []int{0})
	if out.Arity != 3 {
		t.Fatalf("join arity: want 3, got %d", out.Arity)
	}
	out.Sort()
	if out.Len() != 2 || !out.Tuples[0].Equal(Tuple{1, 10, 100}) || !out.Tuples[1].Equal(Tuple{1, 10, 101}) {
		t.Fatalf("join result wrong: %v", out.Tuples)
	}
}

func TestJoinIsSymmetricOnCount(t *testing.T) {
	// |R ⋈ S| must not depend on the join direction.
	f := func(rs, ss []uint8) bool {
		r := NewRelation("R", 2)
		for i, v := range rs {
			r.InsertValues(Value(i%5), Value(v%4))
		}
		s := NewRelation("S", 2)
		for i, v := range ss {
			s.InsertValues(Value(v%4), Value(i%5))
		}
		r.Dedup()
		s.Dedup()
		a := Join("A", r, []int{1}, s, []int{0})
		b := Join("B", s, []int{0}, r, []int{1})
		return a.Len() == b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDatabaseSizeDomainDegree(t *testing.T) {
	db := NewDatabase()
	e := NewRelation("E", 2)
	e.InsertValues(1, 2)
	e.InsertValues(2, 3)
	e.InsertValues(2, 4)
	db.AddRelation(e)
	u := NewRelation("U", 1)
	u.InsertValues(2)
	db.AddRelation(u)

	dom := db.Domain()
	if len(dom) != 4 {
		t.Fatalf("domain: want 4, got %v", dom)
	}
	// ‖D‖ = |σ| + |Dom| + Σ |R|·ar(R) = 2 + 4 + (3·2 + 1·1) = 13.
	if got := db.Size(); got != 13 {
		t.Errorf("size: want 13, got %d", got)
	}
	// deg(2) = occurs in 3 tuples of E and 1 of U = 4.
	if got := db.Degree(); got != 4 {
		t.Errorf("degree: want 4, got %d", got)
	}
}

func TestDegreeCountsTupleOnce(t *testing.T) {
	db := NewDatabase()
	e := NewRelation("E", 2)
	e.InsertValues(5, 5) // self-loop: element 5 occurs once in this tuple
	db.AddRelation(e)
	if got := db.Degree(); got != 1 {
		t.Errorf("degree of self-loop: want 1, got %d", got)
	}
}

func TestDatabaseClone(t *testing.T) {
	db := NewDatabase()
	e := NewRelation("E", 1)
	e.InsertValues(1)
	db.AddRelation(e)
	c := db.Clone()
	c.Relation("E").InsertValues(2)
	if db.Relation("E").Len() != 1 {
		t.Errorf("clone aliases original")
	}
	if got := c.Names(); len(got) != 1 || got[0] != "E" {
		t.Errorf("names: %v", got)
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alice")
	b := d.Intern("bob")
	if a == b {
		t.Fatalf("distinct names got same value")
	}
	if d.Intern("alice") != a {
		t.Errorf("intern not idempotent")
	}
	if a == 0 || b == 0 {
		t.Errorf("value 0 must stay reserved")
	}
	if d.Name(a) != "alice" || d.Name(b) != "bob" {
		t.Errorf("name lookup failed")
	}
	if d.Name(99) != "?99" {
		t.Errorf("unknown value rendering: %q", d.Name(99))
	}
	if d.Len() != 2 {
		t.Errorf("len: want 2, got %d", d.Len())
	}
}

func TestRelationCloneIndependent(t *testing.T) {
	r := NewRelation("R", 1)
	r.InsertValues(1)
	c := r.Clone()
	c.Tuples[0][0] = 9
	if r.Tuples[0][0] != 1 {
		t.Errorf("relation clone aliases tuples")
	}
}

func TestTryInsertArityError(t *testing.T) {
	r := NewRelation("R", 2)
	if err := r.TryInsert(Tuple{1, 2, 3}); err == nil {
		t.Error("TryInsert accepted an arity mismatch")
	}
	if err := r.TryInsert(Tuple{1, 2}); err != nil {
		t.Errorf("TryInsert rejected a valid tuple: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("len after failed insert: want 1, got %d", r.Len())
	}
}

func randomRel(seed int64, name string, n, dom int) *Relation {
	r := NewRelation(name, 2)
	s := uint64(seed)
	next := func() int {
		s = s*6364136223846793005 + 1442695040888963407
		return int(s>>33) % dom
	}
	for i := 0; i < n; i++ {
		r.InsertValues(Value(next()+1), Value(next()+1))
	}
	r.Dedup()
	return r
}

// TestIndexOnConcurrent: concurrent IndexOn calls share one index per
// column set, and goroutines that probe it right after IndexOn returns
// (scalar and batched) see the fully built table. Run under -race.
func TestIndexOnConcurrent(t *testing.T) {
	r := randomRel(4, "R", 3000, 50)
	probes := randomRel(5, "P", 200, 60)
	var want [2]int // rows matched by all probes, per key column
	for _, p := range probes.Tuples {
		for _, tu := range r.Tuples {
			for c := range want {
				if tu[c] == p[c] {
					want[c]++
				}
			}
		}
	}
	done := make(chan *Index, 8)
	for w := 0; w < 8; w++ {
		cols := []int{w % 2}
		go func(cols []int) {
			ix := r.IndexOn(cols)
			scalar, batched := 0, 0
			for _, p := range probes.Tuples {
				scalar += len(ix.Lookup(p, cols))
			}
			sc := GetScratch()
			ix.LookupBatch(probes.Slab(), cols, sc.Iota(probes.Len()), sc, func(_ int, ids []int32) { batched += len(ids) })
			sc.Release()
			if scalar != want[cols[0]] || batched != want[cols[0]] {
				t.Errorf("cols %v: Lookup matched %d rows, LookupBatch %d, want %d", cols, scalar, batched, want[cols[0]])
			}
			done <- ix
		}(cols)
	}
	seen := map[*Index]bool{}
	for w := 0; w < 8; w++ {
		seen[<-done] = true
	}
	if len(seen) != 2 {
		t.Errorf("concurrent IndexOn built %d distinct indexes, want 2 (one per column set)", len(seen))
	}
}
