package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/fodeg"
	"repro/internal/graphs"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/plan"
)

type ctr = *delay.Counter

// The chain queries of E5/E17/E19/E20: the free-connex projection and the
// projection-free form.
var (
	chainXY  = logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	chainXYZ = logictest.MustParseCQ("Q(x,y,z) :- A(x,y), B(y,z).")
)

// chainDB is their instance, A(i, i%199), B(i%199, i%61): 199 hot join keys, every probe hits.
func chainDB(n int) *database.Database { return modChainDB(n, 199, func(i int) int { return i % 61 }) }

// modChainDB builds A(i, i mod k), B(i mod k, z(i)) for i < n.
func modChainDB(n, k int, z func(i int) int) *database.Database {
	a, b := database.NewRelation("A", 2), database.NewRelation("B", 2)
	for i := 0; i < n; i++ {
		a.InsertValues(database.Value(i), database.Value(i%k))
		b.InsertValues(database.Value(i%k), database.Value(z(i)))
	}
	a.Dedup()
	b.Dedup()
	return dbOf(a, b)
}

func dbOf(rels ...*database.Relation) *database.Database {
	db := database.NewDatabase()
	for _, r := range rels {
		db.AddRelation(r)
	}
	return db
}

// randomDB draws one random binary relation of n tuples over a domain of
// dom values per name, in order.
func randomDB(rng *rand.Rand, n, dom int, names ...string) *database.Database {
	db := database.NewDatabase()
	for _, name := range names {
		db.AddRelation(graphs.RandomRelation(rng, name, 2, n, dom))
	}
	return db
}

// treeInstance builds a complete-binary-tree query of the given depth —
// E1(x1,x2), E2(x1,x3), E3(x2,x4), … — with head {x1}, over random binary
// relations of relSize tuples each. Sibling subtrees of its join tree are
// independent, which is exactly the parallelism the Par* engine exploits.
func treeInstance(rng *rand.Rand, depth, relSize int) (*logic.CQ, *database.Database) {
	q := &logic.CQ{Name: "T", Head: []string{"x1"}}
	db := database.NewDatabase()
	for child := 2; child < 1<<depth; child++ {
		name := fmt.Sprintf("E%d", child-1)
		q.Atoms = append(q.Atoms, logic.NewAtom(name, fmt.Sprintf("x%d", child/2), fmt.Sprintf("x%d", child)))
		db.AddRelation(graphs.RandomRelation(rng, name, 2, relSize, relSize/2))
	}
	return q, db
}

// graphStructure is the functional fodeg structure of a graph with one
// unary predicate P.
func graphStructure(edges []graphs.Edge, n int, p func(i int) bool) (*fodeg.Structure, error) {
	pairs := make([][2]int, len(edges))
	for i, e := range edges {
		pairs[i] = [2]int{e[0], e[1]}
	}
	pred := make([]bool, n)
	for i := range pred {
		pred[i] = p(i)
	}
	return fodeg.FromGraph(n, pairs, map[string][]bool{"P": pred})
}

// edgeFormula is E(x,y) over the structure's edge functions.
func edgeFormula(s *fodeg.Structure, x, y string) fodeg.Formula {
	var ds []fodeg.Formula
	for _, f := range s.EdgeFuncIDs() {
		ds = append(ds, fodeg.Eq{T1: fodeg.Ap(fodeg.V(x), f), T2: fodeg.V(y)})
	}
	return fodeg.Disj{Fs: ds}
}

// warmStatement binds q over the chain instance and pays the first refresh
// after a mutation — the in-place rebuild that installs the incremental
// refreshers — so what follows measures the steady state.
func warmStatement(q *logic.CQ, n int) (*database.Database, *plan.Prepared, error) {
	db := chainDB(n)
	p, err := plan.Compile(q)
	if err != nil {
		return nil, nil, err
	}
	pr, err := p.Bind(db)
	if err != nil {
		return nil, nil, err
	}
	db.Relation("A").Insert(database.Tuple{database.Value(n), 0})
	_, err = pr.Refresh(nil)
	return db, pr, err
}

// run is an operation whose result no table reads. (Boxing a result would
// also cost the allocation-pinned benchmarks an alloc per iteration.)
func run(name string, f func() error) Op {
	return Op{Name: name, Do: func(ctr) (any, error) { return nil, f() }}
}

// chainInsert adds the i-th fresh tuple past key n to the chain's A.
func chainInsert(a *database.Relation, n, i int) {
	a.Insert(database.Tuple{database.Value(n + 1 + i), database.Value(i % 199)})
}

// drained adapts an engine's (enumerator, error) result to an op's: the
// enumerator is exhausted by drain and the answer count reported.
func drained(c ctr) func(delay.Enumerator, error) (any, error) {
	return func(e delay.Enumerator, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		return drain(e, c), nil
	}
}

// drain exhausts e, returning the number of answers; with a counter the
// outputs are marked so delay histograms stay meaningful under -trace.
func drain(e delay.Enumerator, c ctr) int {
	n := 0
	for {
		_, ok := e.Next()
		c.MarkOutput()
		if !ok {
			return n
		}
		n++
	}
}

func perN(d time.Duration, n int) float64     { return float64(d.Nanoseconds()) / float64(n) }
func ratio(a, b time.Duration) float64        { return float64(a) / float64(b) }
func sizes(full, quick, bench []int) [3][]int { return [3][]int{full, quick, bench} }

// each is the Setup of a table whose sizes share no state.
func each(build func(r *Run, n int) ([]Op, Row, error)) func(*Run) Sweep {
	return func(r *Run) Sweep {
		return Sweep{Build: func(n int) ([]Op, Row, error) { return build(r, n) }}
	}
}
