package plan_test

import (
	"errors"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/plan"
)

func mustCQ(t *testing.T, src string) *logic.CQ {
	t.Helper()
	q, err := logic.ParseCQ(src)
	if err != nil {
		t.Fatalf("ParseCQ(%q): %v", src, err)
	}
	return q
}

func mustUCQ(t *testing.T, src string) *logic.UCQ {
	t.Helper()
	u, err := logic.ParseUCQ(src)
	if err != nil {
		t.Fatalf("ParseUCQ(%q): %v", src, err)
	}
	return u
}

// chainDB builds {A(i, i%7), B(i%7, i%3) : i < n} — a free-connex instance
// for Q(x,y) :- A(x,y), B(y,z).
func chainDB(n int) *database.Database {
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	b := database.NewRelation("B", 2)
	for i := 0; i < n; i++ {
		a.InsertValues(database.Value(i), database.Value(i%7))
		b.InsertValues(database.Value(i%7), database.Value(i%3))
	}
	a.Dedup()
	b.Dedup()
	db.AddRelation(a)
	db.AddRelation(b)
	return db
}

// TestStalePlanAllMethods: once the database mutates under a Prepared,
// every execution method fails loudly with ErrStalePlan instead of serving
// answers computed from dead row ids; re-binding the same plan recovers and
// sees the mutation.
func TestStalePlanAllMethods(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := chainDB(20)
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Stale() {
		t.Fatal("fresh Prepared reports stale")
	}
	e, err := pr.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := len(delay.Collect(e))
	if before == 0 {
		t.Fatal("instance unexpectedly empty")
	}

	// Mutate through a relation the query reads; (900, 0) joins with the
	// existing B(0, 0), so the re-bound statement must emit one new answer.
	if err := db.Relation("A").TryInsert(database.Tuple{900, 0}); err != nil {
		t.Fatal(err)
	}
	if !pr.Stale() {
		t.Fatal("Prepared not stale after TryInsert")
	}

	if _, err := pr.Decide(nil); !errors.Is(err, plan.ErrStalePlan) {
		t.Errorf("Decide after mutation: got %v, want ErrStalePlan", err)
	}
	if _, err := pr.Count(nil); !errors.Is(err, plan.ErrStalePlan) {
		t.Errorf("Count after mutation: got %v, want ErrStalePlan", err)
	}
	if _, err := pr.Enumerate(nil); !errors.Is(err, plan.ErrStalePlan) {
		t.Errorf("Enumerate after mutation: got %v, want ErrStalePlan", err)
	}
	if _, err := pr.NewRandomAccess(nil); !errors.Is(err, plan.ErrStalePlan) {
		t.Errorf("NewRandomAccess after mutation: got %v, want ErrStalePlan", err)
	}

	// Re-Bind recovers: the same immutable plan binds against the new
	// generation and the new tuple shows up.
	pr2, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := pr2.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	after := delay.Collect(e2)
	if len(after) != before+1 {
		t.Errorf("after re-Bind: %d answers, want %d", len(after), before+1)
	}
	found := false
	for _, tp := range after {
		if tp.Equal(database.Tuple{900, 0}) {
			found = true
		}
	}
	if !found {
		t.Error("re-bound Prepared does not see the inserted tuple")
	}
}

// TestStalePlanIndexOnlyMutations: mutations that reorder, deduplicate, or
// delete — not just insert — advance the generation too, since bound
// spines hold row-id references into the slabs. No-op mutations (Sort on a
// sorted relation, Dedup with nothing to remove, deleting an absent tuple)
// must NOT stale a warm plan: that was the spurious-staleness bug. A
// mutation that stales the plan through a relation it never reads is caught
// up by a noop Refresh (memos kept); one inside its read set costs the first
// refresh's rebuild.
func TestStalePlanIndexOnlyMutations(t *testing.T) {
	for _, tc := range []struct {
		name        string
		setup       func(db *database.Database) // pre-Bind state adjustment
		mutate      func(db *database.Database)
		wantStale   bool
		wantRefresh plan.RefreshKind
	}{
		{
			// (0, 5) appended after the chainDB Dedup leaves A unsorted,
			// so this Sort really moves rows.
			name:        "Sort(reorders)",
			setup:       func(db *database.Database) { db.Relation("A").Insert(database.Tuple{0, 5}) },
			mutate:      func(db *database.Database) { db.Relation("A").Sort() },
			wantStale:   true,
			wantRefresh: plan.RefreshRebind,
		},
		{
			name:      "Sort(no-op)",
			mutate:    func(db *database.Database) { db.Relation("A").Sort() },
			wantStale: false,
		},
		{
			// chainDB already holds A(0,0); the duplicate makes Dedup real.
			name:        "Dedup(removes)",
			setup:       func(db *database.Database) { db.Relation("A").Insert(database.Tuple{0, 0}) },
			mutate:      func(db *database.Database) { db.Relation("A").Dedup() },
			wantStale:   true,
			wantRefresh: plan.RefreshRebind,
		},
		{
			name:      "Dedup(no-op)",
			mutate:    func(db *database.Database) { db.Relation("B").Dedup() },
			wantStale: false,
		},
		{
			name:        "Insert",
			mutate:      func(db *database.Database) { db.Relation("A").Insert(database.Tuple{800, 801}) },
			wantStale:   true,
			wantRefresh: plan.RefreshRebind,
		},
		{
			name:        "Delete",
			mutate:      func(db *database.Database) { db.Relation("A").Delete(database.Tuple{0, 0}) },
			wantStale:   true,
			wantRefresh: plan.RefreshRebind,
		},
		{
			name:      "Delete(absent)",
			mutate:    func(db *database.Database) { db.Relation("A").Delete(database.Tuple{900, 901}) },
			wantStale: false,
		},
		{
			name:        "AddRelation",
			mutate:      func(db *database.Database) { db.AddRelation(database.NewRelation("Zz", 1)) },
			wantStale:   true,
			wantRefresh: plan.RefreshNoop,
		},
		{
			name:        "Insert(unread relation)",
			setup:       func(db *database.Database) { db.AddRelation(database.NewRelation("Zz", 1)) },
			mutate:      func(db *database.Database) { db.Relation("Zz").Insert(database.Tuple{1}) },
			wantStale:   true,
			wantRefresh: plan.RefreshNoop,
		},
		{
			// Replacing a read relation wholesale is a different *Relation
			// at any generation: never a noop.
			name: "AddRelation(replaces a read relation)",
			mutate: func(db *database.Database) {
				b := database.NewRelation("B", 2)
				b.InsertValues(0, 0)
				db.AddRelation(b)
			},
			wantStale:   true,
			wantRefresh: plan.RefreshRebind,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
			db := chainDB(10)
			if tc.setup != nil {
				tc.setup(db)
			}
			p, err := plan.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := p.Bind(db)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(db)
			if pr.Stale() != tc.wantStale {
				t.Fatalf("%s: Stale() = %v, want %v", tc.name, pr.Stale(), tc.wantStale)
			}
			if _, err := pr.Enumerate(nil); tc.wantStale != errors.Is(err, plan.ErrStalePlan) {
				t.Errorf("Enumerate after %s: got %v, wantStale %v", tc.name, err, tc.wantStale)
			}
			if kind, err := pr.Refresh(nil); err != nil || kind != tc.wantRefresh {
				t.Errorf("Refresh after %s: %v, %v; want %v", tc.name, kind, err, tc.wantRefresh)
			}
			e, err := pr.Enumerate(nil)
			if err != nil {
				t.Fatalf("Enumerate after Refresh: %v", err)
			}
			want, err := oracle.Eval(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := delay.Collect(e); !sameAnswers(got, want) {
				t.Errorf("after %s + Refresh: answers %v, oracle %v", tc.name, got, want)
			}
		})
	}
}

// TestStalePlanUCQ: union statements observe staleness through the same
// generation check.
func TestStalePlanUCQ(t *testing.T) {
	u := mustUCQ(t, "Q(x) :- A(x,y); Q(x) :- B(x,y).")
	db := chainDB(10)
	p, err := plan.CompileUCQ(u)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Decide(nil); err != nil {
		t.Fatal(err)
	}
	db.Relation("B").Insert(database.Tuple{70, 71})
	if _, err := pr.Decide(nil); !errors.Is(err, plan.ErrStalePlan) {
		t.Errorf("union Decide after mutation: got %v, want ErrStalePlan", err)
	}
	if _, err := pr.Count(nil); !errors.Is(err, plan.ErrStalePlan) {
		t.Errorf("union Count after mutation: got %v, want ErrStalePlan", err)
	}
	if _, err := pr.Enumerate(nil); !errors.Is(err, plan.ErrStalePlan) {
		t.Errorf("union Enumerate after mutation: got %v, want ErrStalePlan", err)
	}
}
