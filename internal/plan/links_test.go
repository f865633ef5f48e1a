package plan

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
)

// offsetPos is the position of the routes without one of their own: the
// answer offset, 8 bytes big-endian.
func offsetPos(i uint64) []byte { return binary.BigEndian.AppendUint64(nil, i) }

// answerSet renders rows as a sorted list, for set comparison.
func answerSet(rows []database.Tuple) string {
	s := make([]string, len(rows))
	for i, r := range rows {
		s[i] = r.String()
	}
	sort.Strings(s)
	return fmt.Sprint(s)
}

// TestRefreshDropsAndRestoresLinks replays a churn script — insert a
// joining A tuple, refresh, delete it, refresh — through Prepared.Refresh.
// After every delta refresh the patched core serves from its indexes (a
// drain fingerprints probe keys); after every rebind, the budget's
// included, it serves from its links again (a drain fingerprints nothing).
// Either way its count, its stream, its Seek at every offset and its
// 16-answer pages agree with a fresh Bind.
func TestRefreshDropsAndRestoresLinks(t *testing.T) {
	var probes atomic.Int64
	defer database.SetIndexHashForTesting(func(tu database.Tuple, cols []int) uint64 {
		probes.Add(1)
		return tu.KeyHash(cols)
	})()
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	b := database.NewRelation("B", 2)
	for i := 0; i < 60; i++ {
		a.InsertValues(database.Value(i), database.Value(i%20))
		b.InsertValues(database.Value(i%20), database.Value(i))
	}
	db.AddRelation(a)
	db.AddRelation(b)
	p, err := Compile(parseCQ(t, "Q(x,y,z) :- A(x,y), B(y,z)."))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	// probed drains the statement and reports whether that fingerprinted a
	// probe key, that is whether a bucket switch went through an index.
	probed := func() bool {
		t.Helper()
		e, err := pr.Enumerate(nil)
		if err != nil {
			t.Fatal(err)
		}
		probes.Store(0)
		delay.Collect(e)
		return probes.Load() > 0
	}
	if probed() {
		t.Fatal("a bound core probes its indexes")
	}

	check := func(round int) {
		t.Helper()
		fresh, err := p.Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		fe, _ := fresh.Enumerate(nil)
		want := delay.Collect(fe)
		e, err := pr.Enumerate(nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := delay.Collect(e)
		if answerSet(rows) != answerSet(want) {
			t.Fatalf("round %d: stream %v, a fresh bind %v", round, rows, want)
		}
		if n, err := pr.Count(nil); err != nil || n.Int64() != int64(len(want)) {
			t.Fatalf("round %d: Count = %v, %v; a fresh bind has %d", round, n, err, len(want))
		}
		for i := range rows {
			at, err := pr.EnumerateFrom(context.Background(), nil, offsetPos(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			for k := i; k < len(rows) && k < i+16; k++ {
				if tp, ok := at.Next(); !ok || !tp.Equal(rows[k]) {
					t.Fatalf("round %d: page at %d, answer %d = %v; the stream has %v", round, i, k-i, tp, rows[k])
				}
			}
		}
	}

	deltas, rebinds := 0, 0
	refresh := func(round int) {
		t.Helper()
		kind, err := pr.Refresh(nil)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case RefreshDelta:
			deltas++
			if !probed() {
				t.Fatalf("round %d: a patched core still reads its links", round)
			}
		case RefreshRebind:
			rebinds++
			if probed() {
				t.Fatalf("round %d: a rebuilt core probes its indexes", round)
			}
		default:
			t.Fatalf("round %d: refresh kind %s after a mutation", round, kind)
		}
		if kind == RefreshRebind || round%50 == 0 {
			check(round)
		}
	}
	// The first refresh rebinds to install the refresher; the budget forces
	// every later rebind.
	for round := 0; round < 5000 && rebinds < 3; round++ {
		tup := database.Tuple{database.Value(-1 - round), database.Value(round % 20)}
		a.Insert(tup)
		refresh(round)
		if !a.Delete(tup) {
			t.Fatalf("round %d: delete missed", round)
		}
		refresh(round)
	}
	if rebinds < 3 || deltas == 0 {
		t.Fatalf("%d delta refreshes and %d rebinds: the script never crossed the budget twice", deltas, rebinds)
	}
}
