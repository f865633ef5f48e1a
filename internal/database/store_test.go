package database

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// storeTestRelation builds a small deterministic relation for the seam
// tests: n rows of arity 3 with clustered keys so indexes have multi-row
// buckets.
func storeTestRelation(t *testing.T, n int) *Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{Value(rng.Intn(n / 4)), Value(rng.Intn(8)), Value(i)}
	}
	r := NewRelation("R", 3)
	if err := r.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return r
}

// slabData flattens a relation's tuples the way the snapshot writer does.
func slabData(r *Relation) []Value {
	data := make([]Value, 0, len(r.Tuples)*r.Arity)
	for _, t := range r.Tuples {
		data = append(data, t...)
	}
	return data
}

func TestFromSlabRoundTrip(t *testing.T) {
	r := storeTestRelation(t, 200)
	r.Dedup()
	got, err := FromSlab(SlabSpec{
		Name: r.Name, Arity: r.Arity, Rows: r.Len(),
		Data: slabData(r), Sorted: true, Gen: r.Generation(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Len() || got.Generation() != r.Generation() {
		t.Fatalf("restored %d rows gen %d, want %d rows gen %d", got.Len(), got.Generation(), r.Len(), r.Generation())
	}
	for i, tu := range r.Tuples {
		if !got.Tuples[i].Equal(tu) {
			t.Fatalf("row %d: %v != %v", i, got.Tuples[i], tu)
		}
	}
	// The sorted flag must survive so Contains stays a binary search.
	for _, tu := range r.Tuples {
		if !got.Contains(tu) {
			t.Fatalf("restored relation misses %v", tu)
		}
	}
	if got.Contains(Tuple{-1, -1, -1}) {
		t.Fatal("restored relation contains a tuple that was never inserted")
	}
}

func TestFromSlabRejectsBadSpecs(t *testing.T) {
	if _, err := FromSlab(SlabSpec{Name: "R", Arity: 2, Rows: 3, Data: make([]Value, 5)}); err == nil {
		t.Fatal("mismatched data length accepted")
	}
	if _, err := FromSlab(SlabSpec{Name: "R", Arity: -1}); err == nil {
		t.Fatal("negative arity accepted")
	}
	if _, err := FromSlab(SlabSpec{Name: "R", Arity: 1, Rows: maxRows + 1, Data: nil}); err == nil {
		t.Fatal("row count past the int32 cap accepted")
	}
}

func TestFromSlabArityZero(t *testing.T) {
	r, err := FromSlab(SlabSpec{Name: "T", Arity: 0, Rows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || len(r.Tuples[0]) != 0 {
		t.Fatalf("arity-0 restore: %v", r.Tuples)
	}
}

func TestMappedPromotionOnMutation(t *testing.T) {
	base := storeTestRelation(t, 100)
	data := slabData(base)
	orig := append([]Value(nil), data...)

	r, err := FromSlab(SlabSpec{Name: "R", Arity: 3, Rows: 100, Data: data, Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mapped() || !r.Slab().Mapped() {
		t.Fatal("freshly restored relation should report mapped storage")
	}
	// Reads never promote.
	r.IndexOn([]int{0})
	if !r.Contains(base.Tuples[7]) {
		t.Fatal("mapped relation lost a tuple")
	}
	if !r.Mapped() {
		t.Fatal("a read promoted the relation")
	}
	// The first mutation promotes to heap and leaves the backing untouched.
	r.Insert(Tuple{1000, 1000, 1000})
	if r.Mapped() || r.Slab().Mapped() {
		t.Fatal("mutated relation still reports mapped storage")
	}
	if r.Len() != 101 || !r.Contains(Tuple{1000, 1000, 1000}) || !r.Contains(base.Tuples[7]) {
		t.Fatal("promotion lost tuples")
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("mutation wrote through to the mapped backing at value %d", i)
		}
	}
	// Deletes after promotion behave as on any heap relation.
	if !r.Delete(base.Tuples[7].Clone()) {
		t.Fatal("delete after promotion failed")
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("delete wrote through to the mapped backing at value %d", i)
		}
	}
}

func TestMappedPromotionOnDelete(t *testing.T) {
	base := storeTestRelation(t, 50)
	data := slabData(base)
	orig := append([]Value(nil), data...)
	r, err := FromSlab(SlabSpec{Name: "R", Arity: 3, Rows: 50, Data: data, Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Delete(base.Tuples[3].Clone()) {
		t.Fatal("delete on mapped relation failed")
	}
	if r.Mapped() {
		t.Fatal("delete did not promote")
	}
	if r.Len() != 49 || r.Contains(base.Tuples[3]) {
		t.Fatal("delete on mapped relation produced wrong contents")
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("delete wrote through to the mapped backing at value %d", i)
		}
	}
}

func TestMappedSlabAppendCopies(t *testing.T) {
	data := []Value{1, 2, 3, 4}
	sl := Slab{data: data, arity: 2, mapped: true}
	grown, id := sl.Append(Tuple{5, 6})
	if grown.Mapped() {
		t.Fatal("append left the slab mapped")
	}
	if id != 2 || !grown.Row(2).Equal(Tuple{5, 6}) || !grown.Row(0).Equal(Tuple{1, 2}) {
		t.Fatalf("append produced wrong rows: %v", grown.data)
	}
	if data[0] != 1 || data[3] != 4 {
		t.Fatal("append wrote through to the mapped backing")
	}
}

func TestMappedDeltaLogFeedsRefresh(t *testing.T) {
	// The promotion must be invisible to the delta-log consumers: a mapped
	// relation that mutates logs the same deltas a heap one would.
	base := storeTestRelation(t, 30)
	r, err := FromSlab(SlabSpec{Name: "R", Arity: 3, Rows: 30, Data: slabData(base), Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	r.EnableDeltaLog()
	gen := r.Generation()
	ins := Tuple{900, 900, 900}
	r.Insert(ins)
	r.Delete(base.Tuples[0].Clone())
	d, ok := r.DeltaSince(gen)
	if !ok {
		t.Fatal("delta unavailable after promotion")
	}
	if len(d.Ins) != 1 || !d.Ins[0].Equal(ins) || len(d.Del) != 1 || !d.Del[0].Equal(base.Tuples[0]) {
		t.Fatalf("wrong delta after promotion: +%v -%v", d.Ins, d.Del)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	names := []string{"alice", "bob", "carol", "日本", "x y z"}
	for _, n := range names {
		d.Intern(n)
	}
	rd, err := DictionaryFromNames(d.Names())
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != d.Len() {
		t.Fatalf("restored %d names, want %d", rd.Len(), d.Len())
	}
	for _, n := range names {
		if rd.Intern(n) != d.Intern(n) {
			t.Fatalf("value id for %q drifted across the round-trip", n)
		}
	}
	if _, err := DictionaryFromNames([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestRestoreIndexMatchesBuild(t *testing.T) {
	r := storeTestRelation(t, 500)
	cols := []int{0, 1}
	dump := r.DumpIndex(cols)

	fresh, err := FromSlab(SlabSpec{Name: "R", Arity: 3, Rows: r.Len(), Data: slabData(r)})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreIndex(dump); err != nil {
		t.Fatal(err)
	}
	want := r.IndexOn(cols)
	got := fresh.IndexOn(cols) // must return the restored index, not rebuild
	for _, tu := range r.Tuples {
		w := want.Lookup(tu, cols)
		g := got.Lookup(tu, cols)
		if len(w) != len(g) {
			t.Fatalf("lookup %v: %d vs %d rows", tu, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("lookup %v: row order drifted: %v vs %v", tu, w, g)
			}
		}
	}
	if got.Contains(Tuple{-5, -5, -5}, cols) {
		t.Fatal("restored index matches an absent key")
	}
}

func TestRestoreIndexRejectsCorruptCSR(t *testing.T) {
	r := storeTestRelation(t, 50)
	dump := r.DumpIndex([]int{0})

	bad := dump
	bad.Rows = append([]int32(nil), dump.Rows...)
	bad.Rows[0] = 50 // out of range
	if err := r.RestoreIndex(bad); err == nil {
		t.Fatal("out-of-range row id accepted")
	}

	bad = dump
	bad.Lens = append([]int32(nil), dump.Lens...)
	bad.Lens[0] = int32(len(dump.Rows)) + 1
	if err := r.RestoreIndex(bad); err == nil {
		t.Fatal("span past the row array accepted")
	}

	bad = dump
	bad.Cols = []int{9}
	if err := r.RestoreIndex(bad); err == nil {
		t.Fatal("column outside the arity accepted")
	}

	bad = dump
	bad.FPs = dump.FPs[:len(dump.FPs)-1]
	if err := r.RestoreIndex(bad); err == nil {
		t.Fatal("disagreeing bucket arrays accepted")
	}
}

func TestRestoreIndexUnderForcedCollisions(t *testing.T) {
	// A dump taken under the default hash restores buckets that resolve
	// exactly even when the dump contains true fingerprint collisions:
	// force them with a degraded hash at dump time via the process hook.
	restore := SetIndexHashForTesting(func(tu Tuple, cols []int) uint64 {
		return uint64(tu[cols[0]]) & 1
	})
	r := storeTestRelation(t, 300)
	cols := []int{0}
	want := map[Value]int{}
	for _, tu := range r.Tuples {
		want[tu[0]]++
	}
	ix := r.IndexOn(cols)
	probe := Tuple{0}
	for v, n := range want {
		probe[0] = v
		if got := len(ix.Lookup(probe, []int{0})); got != n {
			t.Fatalf("degraded index: key %d has %d rows, want %d", v, got, n)
		}
	}
	restore()

	// The layout DumpIndex serializes, pinned against a brute-force CSR on
	// a small relation: keys in first-appearance order, each bucket's rows
	// ascending, buckets listed by fingerprint, then offset. Under the
	// degraded hash every fingerprint is shared by several keys.
	degraded := func(tu Tuple, cols []int) uint64 { return uint64(tu[cols[0]]) & 1 }
	small := storeTestRelation(t, 40)
	for _, cols := range [][]int{{0}, {0, 1}} {
		if got, want := small.DumpIndex(cols), bruteCSR(small, cols, defaultKeyHash); !reflect.DeepEqual(got, want) {
			t.Fatalf("DumpIndex(%v) = %+v, want %+v", cols, got, want)
		}
		got := buildIndex(small.Tuples, cols, small.Slab(), degraded).csr()
		if want := bruteCSR(small, cols, degraded); !reflect.DeepEqual(got, want) {
			t.Fatalf("colliding layout on %v = %+v, want %+v", cols, got, want)
		}
		// A restored dump dumps back to itself.
		dump := small.DumpIndex(cols)
		fresh, err := FromSlab(SlabSpec{Name: "R", Arity: 3, Rows: small.Len(), Data: slabData(small)})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreIndex(dump); err != nil {
			t.Fatal(err)
		}
		if again := fresh.IndexOn(cols).csr(); !reflect.DeepEqual(again, dump) {
			t.Fatalf("restored index on %v re-dumps as %+v, want %+v", cols, again, dump)
		}
	}

	// The hook is process-wide and must restore cleanly.
	r2 := storeTestRelation(t, 100)
	if r2.IndexOn(cols) == nil {
		t.Fatal("index build after restore failed")
	}
}

func TestStructuralGenRoundTrip(t *testing.T) {
	db := NewDatabase()
	db.AddRelation(FromTuples("A", 1, []Tuple{{1}, {2}}))
	db.AddRelation(FromTuples("B", 2, []Tuple{{1, 2}}))
	gen := db.Generation()

	re := NewDatabase()
	for _, name := range db.Names() {
		r := db.Relation(name)
		nr, err := FromSlab(SlabSpec{
			Name: name, Arity: r.Arity, Rows: r.Len(),
			Data: slabData(r), Sorted: true, Gen: r.Generation(),
		})
		if err != nil {
			t.Fatal(err)
		}
		re.AddRelation(nr)
	}
	re.SetStructuralGen(db.StructuralGen())
	if re.Generation() != gen {
		t.Fatalf("restored generation %d, want %d", re.Generation(), gen)
	}
}

// bruteCSR is the CSR layout of an index on cols under hash, computed by
// grouping rows with string keys.
func bruteCSR(r *Relation, cols []int, hash keyHashFunc) IndexCSR {
	var order []string
	groups := map[string][]int32{}
	fps := map[string]uint64{}
	for i, tu := range r.Tuples {
		k := StringKey(tu, cols)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
			fps[k] = hash(tu, cols)
		}
		groups[k] = append(groups[k], int32(i))
	}
	c := IndexCSR{Cols: cols}
	var bs []slot
	for _, k := range order {
		bs = append(bs, slot{tag: fps[k], off: int32(len(c.Rows)), n: int32(len(groups[k]))})
		c.Rows = append(c.Rows, groups[k]...)
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].tag != bs[j].tag {
			return bs[i].tag < bs[j].tag
		}
		return bs[i].off < bs[j].off
	})
	for _, b := range bs {
		c.FPs = append(c.FPs, b.tag)
		c.Offs = append(c.Offs, b.off)
		c.Lens = append(c.Lens, b.n)
	}
	return c
}
