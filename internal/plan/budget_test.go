package plan_test

// The refreshers' churn budget is the one bound on how far a statement kept
// warm through mutations may degrade: nothing compacts a patched spine in
// place, the budget rebuild (a RefreshRebind) reclaims everything at once.
// These tests drive a statement far past the budget through Prepared.Refresh
// and hold its answers to a fresh Bind's on both sides of every rebuild.

import (
	"context"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/plan"
)

// joinDB is {A(i, i%50), B(i%50, i) : i < n}: every tuple joins.
func joinDB(n int) *database.Database {
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	b := database.NewRelation("B", 2)
	for i := 0; i < n; i++ {
		a.InsertValues(database.Value(i), database.Value(i%50))
		b.InsertValues(database.Value(i%50), database.Value(i))
	}
	db.AddRelation(a)
	db.AddRelation(b)
	return db
}

// freshAnswers binds p anew over db and drains it.
func freshAnswers(t *testing.T, p *plan.Plan, db *database.Database) []database.Tuple {
	t.Helper()
	fresh, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := fresh.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	return delay.Collect(e)
}

// TestRefresherStateBounded is the plan-level twin of the internal/cq test:
// 20 000 insert+delete rounds of a tuple that joins nothing used to be
// absorbed as deltas forever while the refresher's node state grew with
// every round. The budget now forces a rebind every few hundred rounds, on
// both spine routes, and the answers stay those of a fresh Bind.
func TestRefresherStateBounded(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		route       plan.Engine
	}{
		{"const", "Q(x,y,z) :- A(x,y), B(y,z).", plan.EngineConstantDelay},
		{"linear", "Q(x,z) :- A(x,y), B(y,z).", plan.EngineLinearDelay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := plan.Compile(mustCQ(t, tc.query))
			if err != nil {
				t.Fatal(err)
			}
			if p.EnumerateEngine != tc.route {
				t.Fatalf("route %s, want %s", p.EnumerateEngine, tc.route)
			}
			db := joinDB(200)
			a := db.Relation("A")
			pr, err := p.Bind(db)
			if err != nil {
				t.Fatal(err)
			}
			rebinds := 0
			refresh := func(round int) {
				kind, err := pr.Refresh(nil)
				if err != nil {
					t.Fatalf("round %d: Refresh: %v", round, err)
				}
				if kind == plan.RefreshRebind {
					rebinds++
				}
			}
			const rounds = 20000
			for round := 0; round < rounds; round++ {
				// y = 10⁶+round occurs in no B tuple.
				tup := database.Tuple{database.Value(-1 - round), database.Value(1_000_000 + round)}
				a.Insert(tup)
				refresh(round)
				if !a.Delete(tup) {
					t.Fatalf("round %d: delete missed", round)
				}
				refresh(round)
				if (round+1)%500 == 0 {
					e, err := pr.Enumerate(nil)
					if err != nil {
						t.Fatalf("round %d: Enumerate: %v", round, err)
					}
					if got, want := delay.Collect(e), freshAnswers(t, p, db); !sameAnswers(got, want) {
						t.Fatalf("round %d: %d answers, a fresh bind has %d", round, len(got), len(want))
					}
				}
			}
			// The first refresh is always a rebind (it installs the
			// refresher); every further one is the budget's.
			if rebinds < 2 {
				t.Fatalf("%d rebinds in %d rounds: the budget never forced a rebuild", rebinds, rounds)
			}
			t.Logf("%d rebinds in %d rounds", rebinds, rounds)
		})
	}
}

// TestChurnPastBudget replaces the compaction churn tests: delete/reinsert
// churn of tuples that DO join tombstones a slab row and abandons index
// slots on every round. On every round — so before and after each budget
// rebuild — pages resumed at answer offsets are the stream position for
// position, and the stream is a fresh Bind's answer set.
func TestChurnPastBudget(t *testing.T) {
	p, err := plan.Compile(mustCQ(t, "Q(x,y,z) :- A(x,y), B(y,z)."))
	if err != nil {
		t.Fatal(err)
	}
	const base = 60 // small, so the full check can run on every round
	db := joinDB(base)
	a := db.Relation("A")
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	rebinds := 0
	for round := 0; round < 4000; round++ {
		i := (round / 2) % base
		tup := database.Tuple{database.Value(i), database.Value(i % 50)}
		if round%2 == 0 {
			if !a.Delete(tup) {
				t.Fatalf("round %d: delete missed", round)
			}
		} else {
			a.Insert(tup)
		}
		kind, err := pr.Refresh(nil)
		if err != nil {
			t.Fatalf("round %d: Refresh: %v", round, err)
		}
		if kind == plan.RefreshRebind {
			rebinds++
		}
		e, err := pr.Enumerate(nil)
		if err != nil {
			t.Fatalf("round %d: Enumerate: %v", round, err)
		}
		stream := delay.Collect(e)
		var paged []database.Tuple
		for off := 0; off < len(stream)+1; off += 64 {
			at, err := pr.EnumerateFrom(context.Background(), nil, offsetPos(uint64(off)))
			if err != nil {
				t.Fatalf("round %d: resume at %d: %v", round, off, err)
			}
			for k := 0; k < 64; k++ {
				tp, ok := at.Next()
				if !ok {
					break
				}
				paged = append(paged, tp.Clone())
			}
		}
		if !sameSequence(paged, stream) {
			t.Fatalf("round %d (%v): pages of 64 differ from the stream (%d vs %d answers)", round, kind, len(paged), len(stream))
		}
		if want := freshAnswers(t, p, db); !sameAnswers(stream, want) {
			t.Fatalf("round %d (%v): %d answers, a fresh bind has %d", round, kind, len(stream), len(want))
		}
	}
	if rebinds < 3 {
		t.Fatalf("%d rebinds in 4000 rounds: the churn never spent the budget", rebinds)
	}
	t.Logf("%d rebinds in 4000 rounds", rebinds)
}
