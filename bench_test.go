package repro

// One benchmark per experiment of DESIGN.md. Each validates the *shape* of
// a complexity bound from the paper; cmd/qbench prints the same data as
// tables and EXPERIMENTS.md records a full run. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks report per-iteration time over a fixed instance size so that
// the b.N scaling of the testing framework does not conflate with the
// data-size scaling under study; size sweeps live in cmd/qbench.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/boolmat"
	"repro/internal/counting"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/fodeg"
	"repro/internal/graphs"
	"repro/internal/ineq"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/mso"
	"repro/internal/ncq"
	"repro/internal/plan"
	"repro/internal/prefix"
	"repro/internal/ucq"
)

// ---- E1: bounded-degree FO (Theorems 3.1/3.2) ----

func boundedDegreeStructure(n int) *fodeg.Structure {
	edges := graphs.Cycle(n)
	pred := make([]bool, n)
	for i := range pred {
		pred[i] = i%3 == 0
	}
	pairs := make([][2]int, len(edges))
	for i, e := range edges {
		pairs[i] = [2]int{e[0], e[1]}
	}
	s, err := fodeg.FromGraph(n, pairs, map[string][]bool{"P": pred})
	if err != nil {
		panic(err)
	}
	return s
}

func edgeFormula(s *fodeg.Structure, x, y string) fodeg.Formula {
	var ds []fodeg.Formula
	for _, f := range s.EdgeFuncIDs() {
		ds = append(ds, fodeg.Eq{T1: fodeg.Ap(fodeg.V(x), f), T2: fodeg.V(y)})
	}
	return fodeg.Disj{Fs: ds}
}

func BenchmarkE1BoundedDegreeFO(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 15} {
		s := boundedDegreeStructure(n)
		p, _ := s.PredID("P")
		q := fodeg.Ex{Var: "y", F: fodeg.Conj{Fs: []fodeg.Formula{
			edgeFormula(s, "x", "y"), fodeg.Pr{Pred: p, T: fodeg.V("y")},
		}}}
		b.Run(fmt.Sprintf("ModelCheck/n=%d", n), func(b *testing.B) {
			mc := fodeg.Ex{Var: "x", F: q}
			for i := 0; i < b.N; i++ {
				if _, err := s.ModelCheck(mc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Count/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Count(q, []string{"x"}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Enumerate/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := s.Enumerate(q, []string{"x"}, nil)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// ---- E2: the low-degree class (Theorems 3.9/3.10) ----

func BenchmarkE2LowDegree(b *testing.B) {
	for _, k := range []int{8, 12} {
		edges, n := graphs.CliquePlusIndependent(k)
		pairs := make([][2]int, len(edges))
		for i, e := range edges {
			pairs[i] = [2]int{e[0], e[1]}
		}
		s, err := fodeg.FromGraph(n, pairs, map[string][]bool{"P": make([]bool, n)})
		if err != nil {
			b.Fatal(err)
		}
		mc := fodeg.Ex{Var: "x", F: fodeg.Ex{Var: "y", F: edgeFormula(s, "x", "y")}}
		b.Run(fmt.Sprintf("ModelCheck/k=%d/n=%d", k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.ModelCheck(mc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E3: MSO on trees (Theorems 3.11/3.12) ----

func BenchmarkE3MSOTrees(b *testing.B) {
	mcF := logictest.MustParseFormula("forall x. (Leaf(x) -> exists y. Child(y,x))")
	setF := logictest.MustParseFormula("(exists z. z in X) and forall y. (y in X -> a(y))")
	for _, n := range []int{1000, 8000} {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % 2
		}
		tr := mso.Path(n, labels, []string{"a", "b"})
		b.Run(fmt.Sprintf("ModelCheck/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mso.ModelCheck(tr, mcF); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Count/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mso.Count(tr, setF); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Enumerate50/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := mso.Enumerate(tr, setF, nil)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 50; j++ {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// ---- E4: Yannakakis (Theorem 4.2) ----

func BenchmarkE4Yannakakis(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,w) :- R(x,y), S(y,z), T(z,w).")
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1 << 12, 1 << 14} {
		db := database.NewDatabase()
		for _, name := range []string{"R", "S", "T"} {
			db.AddRelation(graphs.RandomRelation(rng, name, 2, n, n/2))
		}
		b.Run(fmt.Sprintf("Eval/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cq.Eval(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Decide/n=%d", n), func(b *testing.B) {
			bq := logictest.MustParseCQ("B() :- R(x,y), S(y,z), T(z,w).")
			for i := 0; i < b.N; i++ {
				if _, err := cq.Decide(db, bq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: linear vs constant delay (Theorems 4.3/4.6) ----

func e5DB(n int) *database.Database {
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	bb := database.NewRelation("B", 2)
	for i := 0; i < n; i++ {
		a.InsertValues(database.Value(i), database.Value(i%199))
		bb.InsertValues(database.Value(i%199), database.Value(i%61))
	}
	a.Dedup()
	bb.Dedup()
	db.AddRelation(a)
	db.AddRelation(bb)
	return db
}

func BenchmarkE5Delay(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	for _, n := range []int{1 << 12, 1 << 14} {
		db := e5DB(n)
		b.Run(fmt.Sprintf("ConstantDelay/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := cq.EnumerateConstantDelay(db, q, nil)
				if err != nil {
					b.Fatal(err)
				}
				delay.Collect(e)
			}
		})
		if n <= 1<<12 {
			// The linear-delay baseline costs Θ(n) per answer, i.e. Θ(n²)
			// total here; larger sizes would dominate the whole suite.
			b.Run(fmt.Sprintf("LinearDelay/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e, err := cq.EnumerateLinearDelay(db, q, nil)
					if err != nil {
						b.Fatal(err)
					}
					delay.Collect(e)
				}
			})
		}
	}
}

// ---- E6: Boolean matrix multiplication (Theorem 4.8) ----

func BenchmarkE6MatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{128, 256} {
		a := boolmat.Random(rng, n, 0.05)
		m := boolmat.Random(rng, n, 0.05)
		b.Run(fmt.Sprintf("Naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				boolmat.MultiplyNaive(a, m)
			}
		})
		b.Run(fmt.Sprintf("Bitset/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				boolmat.MultiplyBitset(a, m)
			}
		})
		b.Run(fmt.Sprintf("ViaQuery/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := boolmat.MultiplyViaQuery(a, m, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E9: UCQ union enumeration (Theorem 4.13) ----

func eq1DB(n int) *database.Database {
	db := database.NewDatabase()
	r1 := database.NewRelation("R1", 2)
	r2 := database.NewRelation("R2", 2)
	r3 := database.NewRelation("R3", 2)
	for i := 0; i < n; i++ {
		r1.InsertValues(database.Value(i), database.Value(i))
		r2.InsertValues(database.Value(i), database.Value((i+1)%n))
		r3.InsertValues(database.Value(i), database.Value(i%5))
	}
	db.AddRelation(r1)
	db.AddRelation(r2)
	db.AddRelation(r3)
	return db
}

func BenchmarkE9UCQ(b *testing.B) {
	u := ucq.Eq1Queries()
	for _, n := range []int{2000, 8000} {
		db := eq1DB(n)
		b.Run(fmt.Sprintf("Generic/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := ucq.Enumerate(db, u, 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				delay.Collect(e)
			}
		})
		b.Run(fmt.Sprintf("Interleaved/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := ucq.EnumerateEq1(db, nil)
				if err != nil {
					b.Fatal(err)
				}
				delay.Collect(e)
			}
		})
	}
}

// ---- E10: ACQ< clique reduction (Theorem 4.15) ----

func BenchmarkE10CliqueEncoding(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 9
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(100) < 40 {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	for k := 2; k <= 4; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ineq.DecideClique(adj, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E11: ACQ≠ enumeration (Theorem 4.20) ----

func BenchmarkE11Disequalities(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z), x != z.")
	for _, n := range []int{2000, 8000} {
		db := database.NewDatabase()
		a := database.NewRelation("A", 2)
		bb := database.NewRelation("B", 2)
		for i := 0; i < n; i++ {
			a.InsertValues(database.Value(i), database.Value(i%97))
			bb.InsertValues(database.Value(i%97), database.Value((i+1)%31))
		}
		a.Dedup()
		bb.Dedup()
		db.AddRelation(a)
		db.AddRelation(bb)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := ineq.EnumerateNeq(db, q, nil)
				if err != nil {
					b.Fatal(err)
				}
				delay.Collect(e)
			}
		})
	}
}

// ---- E12: weighted counting (Theorem 4.21) + matchings (Eq 2) ----

func BenchmarkE12WeightedCount(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	q := logictest.MustParseCQ("Q(x,y,z) :- R(x,y), S(y,z).")
	for _, n := range []int{1 << 12, 1 << 14} {
		db := database.NewDatabase()
		db.AddRelation(graphs.RandomRelation(rng, "R", 2, n, n/2))
		db.AddRelation(graphs.RandomRelation(rng, "S", 2, n, n/2))
		bi := counting.BigInt{}
		b.Run(fmt.Sprintf("BigInt/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := counting.CountQuantifierFree(db, q, counting.UnitWeight(bi), bi); err != nil {
					b.Fatal(err)
				}
			}
		})
		gf := counting.NewGF(1<<61 - 1)
		b.Run(fmt.Sprintf("GF/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := counting.CountQuantifierFree(db, q, counting.UnitWeight(gf), gf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	rng2 := rand.New(rand.NewSource(8))
	adj := graphs.RandomBipartite(rng2, 5, 0.6)
	b.Run("MatchingsEq2/n=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := counting.PerfectMatchingsViaACQ(adj); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E13: star size sweep (Theorem 4.28) ----

func BenchmarkE13StarSize(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	for k := 1; k <= 4; k++ {
		q := &logic.CQ{Name: "Psi"}
		db := database.NewDatabase()
		for i := 1; i <= k; i++ {
			x := fmt.Sprintf("x%d", i)
			q.Head = append(q.Head, x)
			q.Atoms = append(q.Atoms, logic.NewAtom(fmt.Sprintf("E%d", i), "t", x))
			db.AddRelation(graphs.RandomRelation(rng, fmt.Sprintf("E%d", i), 2, n, n/4))
		}
		b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
			bi := counting.BigInt{}
			for i := 0; i < b.N; i++ {
				if _, err := counting.Count(db, q, counting.UnitWeight(bi), bi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E14: β-acyclic SAT (Theorem 4.31) ----

func BenchmarkE14BetaAcyclic(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{200, 800} {
		f := ncq.RandomIntervalCNF(rng, n, 2*n, 6)
		b.Run(fmt.Sprintf("NestPointDP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.SolveBetaAcyclic(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DPLL/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.SolveDPLL()
			}
		})
	}
}

// ---- E15: prefix classes (Theorems 5.3/5.5) ----

func BenchmarkE15Prefix(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	f0 := logictest.MustParseFormula("E(x,y) and x in X and not y in X")
	for _, n := range []int{10, 14} {
		db := graphs.EdgesToDB(graphs.RandomBoundedDegree(rng, n, 3), n)
		b.Run(fmt.Sprintf("CountSigma0/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prefix.CountSigma0(db, f0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	dnf := prefix.RandomDNF3(rng, 16, 16)
	cubes := dnf.Cubes()
	b.Run("KarpLuby/vars=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prefix.KarpLuby(cubes, dnf.N, 0.1, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExactDNF/vars=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dnf.CountExact()
		}
	})
	db := graphs.EdgesToDB(graphs.Cycle(10), 10)
	g0 := logictest.MustParseFormula("V(x) and x in X")
	b.Run("GrayEnumSigma0/n=10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := prefix.EnumerateSigma0(db, g0, nil)
			if err != nil {
				b.Fatal(err)
			}
			prefix.CollectSetAnswers(e)
		}
	})
	g1 := logictest.MustParseFormula("exists x. (x in X and V(x))")
	db8 := graphs.EdgesToDB(graphs.Cycle(8), 8)
	b.Run("FlashlightSigma1/n=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := prefix.EnumerateSigma1(db8, g1, nil)
			if err != nil {
				b.Fatal(err)
			}
			prefix.CollectSetAnswers(e)
		}
	})
}

// ---- E16: naive FO baseline ----

func BenchmarkE16NaiveFO(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	db := graphs.EdgesToDB(graphs.RandomBoundedDegree(rng, 24, 6), 24)
	for _, h := range []int{2, 3} {
		var parts []string
		var vars []string
		for i := 1; i <= h; i++ {
			vars = append(vars, fmt.Sprintf("x%d", i))
			for j := i + 1; j <= h; j++ {
				parts = append(parts, fmt.Sprintf("(E(x%d,x%d) and not x%d = x%d)", i, j, i, j))
			}
		}
		f := logictest.MustParseFormula(joinAnd(parts))
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				logic.EvalFO(db, f, vars)
			}
		})
	}
}

func joinAnd(parts []string) string {
	out := parts[0]
	for _, p := range parts[1:] {
		out += " and " + p
	}
	return out
}

// ---- E17 (extension): random access / random order enumeration [23] ----

func BenchmarkE17RandomAccess(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	for _, n := range []int{1 << 12, 1 << 16} {
		db := e5DB(n)
		b.Run(fmt.Sprintf("Build/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cq.NewRandomAccess(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		ra, err := cq.NewRandomAccess(db, q)
		if err != nil {
			b.Fatal(err)
		}
		total := ra.Count().Int64()
		b.Run(fmt.Sprintf("Get/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				if _, err := ra.GetInt(rng.Int63n(total)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Weights on the spine: count, random access and page seeks ----

// pathDB builds a random graph of n edges over n/2 nodes — the shape of the
// benchmark's edge relations — so both parts of the self-join path query
// keep about n rows after reduction.
func pathDB(n int) *database.Database {
	db := database.NewDatabase()
	db.AddRelation(graphs.RandomRelation(rand.New(rand.NewSource(17)), "A", 2, n, n/2))
	return db
}

// BenchmarkSpineWeights times the one counting pass over an already bound
// core that serves Count, random access and page seeks.
func BenchmarkSpineWeights(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,y,z) :- A(x,y), A(y,z).")
	for _, n := range []int{1 << 13, 1 << 16} {
		core, err := cq.PrepareConstantDelay(pathDB(n), q, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cq.NewSpineWeights(core, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageSeek times one deep page as qservd serves it: a seek to an
// offset in the last quarter of the answers, then 64 constant-delay moves.
func BenchmarkPageSeek(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,y,z) :- A(x,y), A(y,z).")
	core, err := cq.PrepareConstantDelay(pathDB(1<<16), q, nil)
	if err != nil {
		b.Fatal(err)
	}
	w, err := cq.NewSpineWeights(core, nil)
	if err != nil {
		b.Fatal(err)
	}
	od := core.Cursor(nil)
	deep, span := w.Total()*3/4, w.Total()/4-64
	od.Seek(w, deep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		od.Seek(w, deep+uint64(i)*7919%span)
		for k := 0; k < 64; k++ {
			if _, ok := od.Next(); !ok {
				b.Fatal("page ran off the end")
			}
		}
	}
}

// BenchmarkCountAfterRefresh times the read-after-write unit of a churn
// workload: one tuple inserted, the bound statement caught up by a delta
// refresh, and its count taken again over the patched spine.
func BenchmarkCountAfterRefresh(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,y,z) :- A(x,y), B(y,z).")
	n := 1 << 14
	db := e5DB(n)
	a := db.Relation("A")
	p, err := plan.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		b.Fatal(err)
	}
	// The first refresh rebuilds and installs the incremental refresher.
	a.Insert(database.Tuple{database.Value(n), 0})
	if _, err := pr.Refresh(nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Insert(database.Tuple{database.Value(n + 1 + i), database.Value(i % 199)})
		if kind, err := pr.Refresh(nil); err != nil || kind != plan.RefreshDelta {
			b.Fatal(kind, err)
		}
		if _, err := pr.Count(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Parallel Yannakakis: sharded hash joins over sibling subtrees ----

// parTreeInstance builds the E18 instance: a complete-binary-tree query of
// depth 4 (14 atoms, head {x1}) whose sibling subtrees the parallel engine
// processes concurrently.
func parTreeInstance(relSize int) (*logic.CQ, *database.Database) {
	rng := rand.New(rand.NewSource(18))
	q := &logic.CQ{Name: "T", Head: []string{"x1"}}
	db := database.NewDatabase()
	for child := 2; child <= 15; child++ {
		name := fmt.Sprintf("E%d", child-1)
		q.Atoms = append(q.Atoms, logic.NewAtom(name,
			fmt.Sprintf("x%d", child/2), fmt.Sprintf("x%d", child)))
		db.AddRelation(graphs.RandomRelation(rng, name, 2, relSize, relSize/2))
	}
	return q, db
}

// BenchmarkParYannakakisEval compares the parallel engine at several worker
// counts against the sequential baseline on the large tree instance. On
// multicore hardware par=4 beats par=1 on wall time; the counted steps are
// identical by construction (see TestParStepsEqualSequential in
// internal/cq), so the comparison isolates scheduling from work.
func BenchmarkParYannakakisEval(b *testing.B) {
	q, db := parTreeInstance(1 << 14)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cq.Eval(db, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cq.ParEval(db, q, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParYannakakisDecide(b *testing.B) {
	q, db := parTreeInstance(1 << 14)
	bq := &logic.CQ{Name: "B", Atoms: q.Atoms}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cq.Decide(db, bq); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cq.ParDecide(db, bq, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParYannakakisFullReduce(b *testing.B) {
	q, db := parTreeInstance(1 << 14)
	bq := &logic.CQ{Name: "B", Atoms: q.Atoms}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := cq.BuildTree(db, bq, false)
				if err != nil {
					b.Fatal(err)
				}
				t.ParFullReduce(p, nil)
			}
		})
	}
}

// ---- Plan cache: Compile → Bind → Execute amortization (E19) ----

// BenchmarkPlanCacheBind pins the pipeline's warm-path contract. A cold
// bind pays classification, join-tree construction, semijoin reduction and
// index building; a warm cache probe is a fingerprint fold, two map
// lookups and a generation check — 0 allocs/op, gated at 0% tolerance by
// cmd/benchgate in CI. Warm+execute adds a fresh constant-delay cursor
// walk so the end-to-end repeated-query cost is visible next to the cold
// path it replaces.
func BenchmarkPlanCacheBind(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	db := e5DB(1 << 14)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := plan.Compile(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Bind(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := plan.NewCache()
		if _, err := cache.Prepare(q, db); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr, err := cache.Prepare(q, db)
			if err != nil {
				b.Fatal(err)
			}
			ok, err := pr.Decide(nil)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("warm+execute", func(b *testing.B) {
		cache := plan.NewCache()
		if _, err := cache.Prepare(q, db); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr, err := cache.Prepare(q, db)
			if err != nil {
				b.Fatal(err)
			}
			e, err := pr.Enumerate(nil)
			if err != nil {
				b.Fatal(err)
			}
			delay.Collect(e)
		}
	})
}

// BenchmarkPreparedRefresh pins the delta-binding contract (qbench E20
// runs the size sweep). cold is the full Bind; refresh is a single-tuple
// insert caught up by Prepared.Refresh on a warm statement — absorbed in
// place, with the budget rebuild amortised in (rebinds/op); rebind pays
// the same mutation with a fresh Bind — the cliff Refresh exists to avoid.
func BenchmarkPreparedRefresh(b *testing.B) {
	q := logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z).")
	n := 1 << 14
	b.Run("cold", func(b *testing.B) {
		db := e5DB(n)
		p, err := plan.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Bind(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refresh", func(b *testing.B) {
		db := e5DB(n)
		a := db.Relation("A")
		p, err := plan.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		pr, err := p.Bind(db)
		if err != nil {
			b.Fatal(err)
		}
		// The first refresh after a mutation rebuilds in place and installs
		// the incremental refreshers; pay it outside the timed loop.
		a.Insert(database.Tuple{database.Value(n), 0})
		if _, err := pr.Refresh(nil); err != nil {
			b.Fatal(err)
		}
		// Deltas are absorbed in place until the refresher's budget is
		// spent; the rebind that follows is part of the price, so it is
		// timed and counted, not refused.
		rebinds := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Insert(database.Tuple{database.Value(n + 1 + i), database.Value(i % 199)})
			kind, err := pr.Refresh(nil)
			if err != nil || kind == plan.RefreshNoop {
				b.Fatal(kind, err)
			}
			if kind == plan.RefreshRebind {
				rebinds++
			}
		}
		b.ReportMetric(float64(rebinds)/float64(b.N), "rebinds/op")
	})
	b.Run("rebind", func(b *testing.B) {
		db := e5DB(n)
		a := db.Relation("A")
		p, err := plan.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Insert(database.Tuple{database.Value(n + 1 + i), database.Value(i % 199)})
			if _, err := p.Bind(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Ablations for DESIGN.md's called-out design choices ----

// AblationReducerPasses: deciding a Boolean ACQ needs only the bottom-up
// semijoin pass; the full reducer adds the top-down pass that evaluation
// and enumeration rely on. The gap is the cost attributable to that choice.
func BenchmarkAblationReducerPasses(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 1 << 14
	db := database.NewDatabase()
	for _, name := range []string{"R", "S", "T"} {
		db.AddRelation(graphs.RandomRelation(rng, name, 2, n, n/2))
	}
	bq := logictest.MustParseCQ("B() :- R(x,y), S(y,z), T(z,w).")
	b.Run("BottomUpOnly(Decide)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cq.Decide(db, bq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullReducer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t, err := cq.BuildTree(db, bq, false)
			if err != nil {
				b.Fatal(err)
			}
			t.FullReduce()
		}
	})
}

// AblationCountVsMaterialize: the Theorem 4.21 counting DP never builds the
// answer set; materializing it first (the naive route) pays for the full
// join. The y-domain is √n wide, so |join| ≈ n·√n ≫ ‖D‖.
func BenchmarkAblationCountVsMaterialize(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 1 << 12
	sq := 64
	db := database.NewDatabase()
	r := database.NewRelation("R", 2)
	s := database.NewRelation("S", 2)
	for i := 0; i < n; i++ {
		r.InsertValues(database.Value(rng.Intn(n)+1), database.Value(rng.Intn(sq)+1))
		s.InsertValues(database.Value(rng.Intn(sq)+1), database.Value(rng.Intn(n)+1))
	}
	r.Dedup()
	s.Dedup()
	db.AddRelation(r)
	db.AddRelation(s)
	q := logictest.MustParseCQ("Q(x,y,z) :- R(x,y), S(y,z).")
	bi := counting.BigInt{}
	b.Run("CountingDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := counting.CountQuantifierFree(db, q, counting.UnitWeight(bi), bi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MaterializeThenCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := cq.Eval(db, q)
			if err != nil {
				b.Fatal(err)
			}
			_ = len(res)
		}
	})
}

// AblationBucketElimination: the β-acyclic solver against brute-force
// search on instances small enough for both.
func BenchmarkAblationBetaVsBrute(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := ncq.RandomIntervalCNF(rng, 18, 40, 4)
	b.Run("NestPointDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.SolveBetaAcyclic(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BruteForce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.SolveBrute()
		}
	})
}
