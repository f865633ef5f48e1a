package database_test

// Statements bound over a database read its base relations' indexes
// (a plain atom's SortedView shares its base's index cache). The delta
// refreshers patch indexes in place, but only their own relations'; this
// test churns a base through Prepared.Refresh, as the serving benchmark's
// churn workload does, and checks that no base index moved a byte.
// (External test package: internal/plan depends on database.)

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/plan"
)

// churnDB holds two edge/label pairs: s, which the churn mutates, and b,
// which only a bystander statement reads.
func churnDB(rng *rand.Rand) *database.Database {
	db := database.NewDatabase()
	for _, pair := range []string{"s", "b"} {
		edge := database.NewRelation("edge_"+pair, 2)
		label := database.NewRelation("label_"+pair, 1)
		for i := 0; i < 300; i++ {
			edge.InsertValues(database.Value(1+rng.Intn(60)), database.Value(1+rng.Intn(60)))
		}
		for i := 0; i < 25; i++ {
			label.InsertValues(database.Value(1 + rng.Intn(60)))
		}
		edge.Dedup()
		label.Dedup()
		db.AddRelation(edge)
		db.AddRelation(label)
	}
	return db
}

type indexDump struct {
	rel    string
	ix     *database.Index
	layout database.IndexCSR
	fresh  database.IndexCSR // DumpIndex: a fresh build on the same columns
}

func dumpBaseIndexes(db *database.Database) []indexDump {
	var out []indexDump
	for _, name := range db.Names() {
		r := db.Relation(name)
		for _, ix := range r.CachedIndexes() {
			out = append(out, indexDump{rel: name, ix: ix, layout: ix.Layout(), fresh: r.DumpIndex(ix.Cols)})
		}
	}
	return out
}

func TestChurnLeavesBaseIndexesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := churnDB(rng)
	texts := []string{
		"Q(x,y) :- edge_s(x,y), label_s(y).",                  // fc2: constant delay
		"Q(x,y,z) :- edge_s(x,y), edge_s(y,z).",               // path3: constant delay
		"Q(x,z) :- edge_s(x,y), edge_s(y,z).",                 // mm: linear delay
		"Q(x,y) :- edge_s(x,y), label_s(y), x != y.",          // neq2
		"Q(x,y) :- edge_b(x,y), label_b(y).",                  // bystander
		"S(x0) :- edge_b(x0,x1), edge_b(x1,x2), label_b(x2).", // chain3
	}
	var queries []*logic.CQ
	var stmts []*plan.Prepared
	for _, src := range texts {
		q, err := logic.ParseCQ(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := p.Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		queries, stmts = append(queries, q), append(stmts, pr)
	}
	check := func(when string) {
		t.Helper()
		for i, pr := range stmts {
			want, err := oracle.Eval(db, queries[i])
			if err != nil {
				t.Fatal(err)
			}
			e, err := pr.Enumerate(nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, texts[i], err)
			}
			if got := delay.Collect(e); len(got) != len(want) {
				t.Fatalf("%s: %s: %d answers, oracle %d", when, texts[i], len(got), len(want))
			}
		}
	}
	check("bound")
	before := dumpBaseIndexes(db)
	shared := map[string]bool{}
	for _, d := range before {
		shared[d.rel] = true
	}
	for _, name := range []string{"edge_s", "edge_b"} {
		if !shared[name] {
			t.Errorf("no statement reads %s's own index: the views built their own", name)
		}
	}

	// Churn: each client inserts a private edge and deletes it again, and
	// every statement catches up through Refresh (delta patches after the
	// first refresh installs the refreshers).
	edge := db.Relation("edge_s")
	kinds := map[plan.RefreshKind]int{}
	var row database.Tuple
	for round := 0; round < 60; round++ {
		if round%2 == 0 {
			row = database.Tuple{database.Value(100 + round%4), database.Value(1 + rng.Intn(60))}
			edge.Insert(row)
		} else {
			edge.Delete(row)
		}
		for i, pr := range stmts {
			kind, err := pr.Refresh(nil)
			if err != nil {
				t.Fatalf("%s: refresh: %v", texts[i], err)
			}
			kinds[kind]++
		}
		if round%10 == 9 {
			check(fmt.Sprintf("round %d", round))
		}
	}
	if kinds[plan.RefreshDelta] == 0 {
		t.Fatalf("no refresh patched a statement in place: %v", kinds)
	}
	for _, d := range before {
		if got := d.ix.Layout(); !reflect.DeepEqual(got, d.layout) {
			t.Errorf("%s's index on %v changed under the churn", d.rel, d.ix.Cols)
		}
		if d.rel == "edge_s" {
			continue // mutated: its cache was dropped, its old indexes kept
		}
		if got := db.Relation(d.rel).DumpIndex(d.ix.Cols); !reflect.DeepEqual(got, d.fresh) {
			t.Errorf("%s: DumpIndex on %v changed under the churn", d.rel, d.ix.Cols)
		}
	}
}
