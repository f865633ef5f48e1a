package plan

import (
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// readSetDB holds a 4-clique's triangles in R, S and T, a relation N for
// negated atoms, a unary P, a union's A and B, and a bystander U that no
// statement below reads.
func readSetDB() *database.Database {
	db := database.NewDatabase()
	add := func(name string, arity int, rows ...database.Tuple) {
		r := database.NewRelation(name, arity)
		for _, t := range rows {
			r.Insert(t)
		}
		db.AddRelation(r)
	}
	var clique []database.Tuple
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			if i != j {
				clique = append(clique, database.Tuple{database.Value(i), database.Value(j)})
			}
		}
	}
	add("R", 2, clique...)
	add("S", 2, clique...)
	add("T", 2, clique...)
	add("N", 2, database.Tuple{1, 2}, database.Tuple{2, 3})
	add("P", 1, database.Tuple{1}, database.Tuple{2})
	add("A", 2, database.Tuple{1, 2})
	add("B", 2, database.Tuple{3, 4})
	add("U", 1, database.Tuple{1})
	return db
}

// refreshAfter inserts tup into rel, refreshes the statement of src bound
// and counted before the insert, and checks that its answers and count
// then match a fresh bind's. It returns the statement's enumeration
// engine, the refresh kind, and whether the count memo survived.
func refreshAfter(t *testing.T, src, rel string, tup database.Tuple) (Engine, RefreshKind, bool) {
	t.Helper()
	db := readSetDB()
	var p *Plan
	var err error
	if u, uerr := logic.ParseUCQ(src); uerr == nil && len(u.Disjuncts) > 1 {
		p, err = CompileUCQ(u)
	} else {
		p, err = Compile(parseCQ(t, src))
	}
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Count(nil); err != nil {
		t.Fatal(err)
	}
	db.Relation(rel).Insert(tup)
	kind, err := pr.Refresh(nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := pr.counted
	fresh, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := answersOf(t, pr), answersOf(t, fresh); len(got) != len(want) {
		t.Fatalf("%s after an insert into %s: %d answers, a fresh bind has %d", src, rel, len(got), len(want))
	} else {
		for k := range want {
			if !got[k] {
				t.Fatalf("%s after an insert into %s: answer %q missing", src, rel, k)
			}
		}
	}
	n, _ := pr.Count(nil)
	m, _ := fresh.Count(nil)
	if n.Cmp(m) != 0 {
		t.Fatalf("%s after an insert into %s: count %s, a fresh bind counts %s", src, rel, n, m)
	}
	return p.EnumerateEngine, kind, kept
}

func answersOf(t *testing.T, pr *Prepared) map[string]bool {
	t.Helper()
	e, err := pr.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, a := range delay.Collect(e) {
		out[a.String()] = true
	}
	return out
}

// TestEveryRoutePinsItsReadSet: the routes that read the database live
// pin the relations of their positive and negated atoms (every disjunct's
// on a union), so a bystander's mutation keeps their memos, and a mutation
// of a relation they read does not. A query with a variable in no positive
// atom ranges over the active domain, which every relation feeds, so it is
// never a noop.
func TestEveryRoutePinsItsReadSet(t *testing.T) {
	for _, tc := range []struct {
		src, rel string
		tup      database.Tuple
		route    Engine
		noop     bool
	}{
		{"Q(x,y,z) :- R(x,y), S(y,z), T(z,x).", "U", database.Tuple{9}, EngineBacktrack, true},
		{"Q(x,y,z) :- R(x,y), S(y,z), T(z,x).", "T", database.Tuple{1, 9}, EngineBacktrack, false},
		{"Q(x) :- R(x,y), !N(y,x).", "U", database.Tuple{9}, EngineBacktrack, true},
		{"Q(x) :- R(x,y), !N(y,x).", "N", database.Tuple{2, 1}, EngineBacktrack, false},
		{"Q(x,y) :- P(x), !N(x,y).", "U", database.Tuple{9}, EngineBacktrack, false},
		{"Q(x) :- A(x,y); Q(x) :- B(x,y).", "U", database.Tuple{9}, EngineUnionExtension, true},
		{"Q(x) :- A(x,y); Q(x) :- B(x,y).", "B", database.Tuple{5, 6}, EngineUnionExtension, false},
	} {
		route, kind, kept := refreshAfter(t, tc.src, tc.rel, tc.tup)
		if route != tc.route {
			t.Errorf("%s: route %s, want %s", tc.src, route, tc.route)
		}
		if (kind == RefreshNoop) != tc.noop {
			t.Errorf("%s after an insert into %s: refresh %v, want noop = %v", tc.src, tc.rel, kind, tc.noop)
		}
		if kept != tc.noop {
			t.Errorf("%s after an insert into %s: count memo kept = %v, want %v", tc.src, tc.rel, kept, tc.noop)
		}
	}
}
