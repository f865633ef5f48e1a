package experiments

// Acyclic conjunctive queries, Section 4: evaluation and enumeration
// (E4–E9), comparisons (E10–E11), counting (E12–E13) and negation (E14),
// with the ablation benches of the design choices they rest on.

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/boolmat"
	"repro/internal/counting"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/graphs"
	"repro/internal/hypergraph"
	"repro/internal/ineq"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/ncq"
	"repro/internal/ucq"
)

var (
	chain3     = logictest.MustParseCQ("Q(x,w) :- R(x,y), S(y,z), T(z,w).")
	chain3Bool = logictest.MustParseCQ("B() :- R(x,y), S(y,z), T(z,w).")
	chain2Full = logictest.MustParseCQ("Q(x,y,z) :- R(x,y), S(y,z).")
	chainNeq   = logictest.MustParseCQ("Q(x,y) :- A(x,y), B(y,z), x != z.")
	unitBigInt = counting.UnitWeight(counting.BigInt{})
)

// countChain2 is the Theorem 4.21 counting DP on the projection-free chain.
func countChain2(db *database.Database) (any, error) {
	return counting.CountQuantifierFree(db, chain2Full, unitBigInt, counting.BigInt{}, nil)
}

var e4 = Experiment{
	ID: "E4", Title: "Yannakakis evaluation: time O(‖φ‖·‖D‖·‖φ(D)‖) (Thm 4.2)",
	Tables: []Table{{
		Bench: "E4Yannakakis", Param: "n",
		Intro: []string{"3-chain query Q(x,w) :- R(x,y), S(y,z), T(z,w) over random relations"},
		Cols:  []string{"|R|:8", "answers:10", "evalTime:12", "time/(‖D‖+out)ns:16.1"},
		Sizes: sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}, []int{1 << 12, 1 << 14}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			db := randomDB(r.Rand(1), n, n/2, "R", "S", "T")
			answers := 0
			eval := run("Eval", func() error {
				res, err := cq.Eval(db, chain3, nil)
				answers = len(res)
				return err
			})
			return []Op{eval}, func(m []Measured) ([]any, error) {
				return []any{n, answers, m[0].Wall, perN(m[0].Wall, 3*n+answers)}, nil
			}, nil
		}),
	}, {
		// Deciding a Boolean ACQ needs only the bottom-up semijoin pass; the
		// full reducer adds the top-down pass that evaluation and
		// enumeration rely on. The gap is the cost of that choice.
		Bench: "AblationReducerPasses", Sizes: sizes(nil, nil, []int{1 << 14}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			db := randomDB(r.Rand(3), n, n/2, "R", "S", "T")
			return []Op{
				run("BottomUpOnly(Decide)", func() error { _, err := cq.Decide(db, chain3Bool, nil); return err }),
				run("FullReducer", func() error {
					t, err := cq.BuildTree(db, chain3Bool, false)
					if err == nil {
						t.FullReduce(nil)
					}
					return err
				}),
			}, nil, nil
		}),
	}},
	Shape: []string{"shape: time tracks input+output (Theorem 4.2's O(‖φ‖·‖D‖·‖φ(D)‖) with small constants)."},
}

var e5 = Experiment{
	ID: "E5", Title: "Linear vs constant delay enumeration (Thm 4.3 vs 4.6)",
	Tables: []Table{{
		Bench: "E5Delay", Param: "n",
		Intro: []string{"free-connex Q(x,y) :- A(x,y), B(y,z): constant- vs linear-delay enumeration"},
		Cols:  []string{"n:8", "answers:10", "constMaxΔ:14", "constPrep:14", "linMaxΔ:14", "linPrep:14"},
		Sizes: sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}, []int{1 << 12, 1 << 14}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			db := chainDB(n)
			return []Op{
					{Name: "ConstantDelay", Label: "const", Enum: func(c ctr) (delay.Enumerator, error) { return cq.EnumerateConstantDelay(db, chainXY, c) }},
					// The linear-delay baseline costs Θ(n) per answer, Θ(n²) in
					// all; benched at larger sizes it would dominate the suite.
					{Name: "LinearDelay", Label: "linear", NoBench: n > 1<<12, Enum: func(c ctr) (delay.Enumerator, error) { return cq.EnumerateLinearDelay(db, chainXY, c) }},
				}, func(m []Measured) ([]any, error) {
					r.RecordAt(n, "const_max_delay_steps", m[0].MaxDelaySteps, "const_prep_ns", m[0].PreprocessTime.Nanoseconds(),
						"linear_max_delay_steps", m[1].MaxDelaySteps)
					return []any{n, m[0].Outputs, m[0].MaxDelaySteps, m[0].PreprocessTime, m[1].MaxDelaySteps, m[1].PreprocessTime}, nil
				}, nil
		}),
	}},
	Shape: []string{"shape: constMaxΔ flat in n (Thm 4.6); linMaxΔ grows ~linearly (Thm 4.3)."},
}

var e6 = Experiment{
	ID: "E6", Title: "The Mat-Mul frontier: Π(x,y) enumeration is matrix multiplication (Thm 4.8, Ex 4.5/4.7)",
	Tables: []Table{{
		Bench: "E6MatMul", Param: "n",
		Intro: []string{"Boolean matrix multiplication: bit-packed baseline vs enumeration of Π(x,y)"},
		Cols:  []string{"n:6", "naive:12", "bitset:12", "viaQuery(Π):14", "agree:8"},
		Sizes: sizes([]int{128, 256, 384}, []int{64, 128}, []int{128, 256}),
		Setup: func(r *Run) Sweep {
			rng := r.Rand(2)
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				a, b := boolmat.Random(rng, n, 0.05), boolmat.Random(rng, n, 0.05)
				return []Op{
						{Name: "Naive", Do: func(ctr) (any, error) { return boolmat.MultiplyNaive(a, b), nil }},
						{Name: "Bitset", Do: func(ctr) (any, error) { return boolmat.MultiplyBitset(a, b), nil }},
						{Name: "ViaQuery", Do: func(ctr) (any, error) { return boolmat.MultiplyViaQuery(a, b, nil) }},
					}, func(m []Measured) ([]any, error) {
						want := m[0].Value.(*boolmat.Matrix)
						return []any{n, m[0].Wall, m[1].Wall, m[2].Wall,
							m[1].Value.(*boolmat.Matrix).Equal(want) && m[2].Value.(*boolmat.Matrix).Equal(want)}, nil
					}, nil
			}, After: func() error {
				a, b := boolmat.Random(rng, 24, 0.2), boolmat.Random(rng, 24, 0.2)
				hq, err := boolmat.MultiplyViaHardQuery(a, b)
				if err == nil {
					r.Printf("Example 4.7 reduction database (n=24): product agrees with baseline: %v\n", hq.Equal(boolmat.MultiplyNaive(a, b)))
				}
				return err
			}}
		},
	}},
	Shape: []string{"shape: Π is acyclic but not free-connex, so its enumeration pays ω(1) delay;",
		"a Constant-Delay_lin enumerator for Π would give O(n²+out) BMM (Thm 4.8)."},
}

func hypergraphOf(edges ...hypergraph.Edge) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for _, e := range edges {
		h.AddEdge(e)
	}
	return h
}

var e7 = Experiment{
	ID: "E7", Title: "Figure 1: the free-connex join tree construction",
	Tables: []Table{{Note: func(r *Run) error {
		ne := hypergraph.NewEdge
		h := hypergraphOf(ne("R1", "x1", "x2"), ne("S1", "x2", "x3", "y3"), ne("R2", "x1", "y1"), ne("T", "y3", "y4", "y5"), ne("S2", "x2", "y2"))
		free := []string{"x1", "x2", "x3"}
		r.Printf("query: φ(x1,x2,x3) ≡ ∃y R(x1,x2) ∧ S(x2,x3,y3) ∧ R(x1,y1) ∧ T(y3,y4,y5) ∧ S(x2,y2)\n")
		r.Printf("acyclic: %v   free-connex: %v   star size: %d\n",
			hypergraph.IsAcyclic(h), hypergraph.FreeConnex(h, free), hypergraph.QuantifiedStarSize(h, free))
		h.AddEdge(ne("S'", "x2", "x3"))
		jt, ok := hypergraph.GYO(h)
		r.Printf("with the new hyperedge S'{x2,x3} ⊆ S{x2,x3,y3} the join tree is (valid: %v):\n%s", ok && jt.Validate() == nil, jt)
		return nil
	}}},
}

var e8 = Experiment{
	ID: "E8", Title: "Figures 2–3: S-components and quantified star size (Ex 4.24/4.27)",
	Tables: []Table{{Note: func(r *Run) error {
		ne := hypergraph.NewEdge
		h := hypergraphOf(ne("A1", "y1", "x1"), ne("A2", "x1", "x2", "y2"), ne("B1", "y3", "x3", "x6"),
			ne("B2", "x4", "x6", "x7", "y4", "y3"), ne("B3", "x7", "y4", "y5", "x8"), ne("B4", "x8", "y6"),
			ne("C1", "y6", "x5", "y7"), ne("C2", "x5", "x9"))
		s := map[string]bool{}
		for i := 1; i <= 7; i++ {
			s[fmt.Sprintf("y%d", i)] = true
		}
		r.Printf("hypergraph of Figure 2 (reconstruction), S = free = {y1..y7}\n")
		for i, comp := range hypergraph.SComponents(h, s) {
			var names []string
			for _, ei := range comp.EdgeIdx {
				names = append(names, h.Edges[ei].String())
			}
			ind := comp.IndependentSVertices(h, s)
			r.Printf("S-component %d: %s\n  independent S-vertices: %v (size %d)\n", i+1, strings.Join(names, " "), ind, len(ind))
		}
		r.Printf("S-star size: %d (the paper's example value is 3, via {y3,y5,y6})\n", hypergraph.SStarSize(h, s))
		return nil
	}}},
}

var e9 = Experiment{
	ID: "E9", Title: "Union of CQs: Equation 1 enumeration via union extensions (Thm 4.13)",
	Tables: []Table{{
		Bench: "E9UCQ", Param: "n",
		Intro: []string{"Equation 1 union: φ1 (not free-connex) ∨ φ2 (free-connex), φ2 provides {x,z,y} to φ1"},
		Cols:  []string{"n:8", "answers:10", "generic maxΔ:18", "interleaved avgΔ:18.1"},
		Sizes: sizes([]int{2000, 8000, 32000}, []int{500, 2000}, []int{2000, 8000}),
		Setup: func(*Run) Sweep {
			u := ucq.Eq1Queries()
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				r1, r2, r3 := database.NewRelation("R1", 2), database.NewRelation("R2", 2), database.NewRelation("R3", 2)
				for i := 0; i < n; i++ {
					r1.InsertValues(database.Value(i), database.Value(i))
					r2.InsertValues(database.Value(i), database.Value((i+1)%n))
					r3.InsertValues(database.Value(i), database.Value(i%5))
				}
				db := dbOf(r1, r2, r3)
				return []Op{
						{Name: "Generic", Label: "generic", Enum: func(c ctr) (delay.Enumerator, error) { return ucq.Enumerate(db, u, 2, c) }},
						{Name: "Interleaved", Label: "interleaved", Enum: func(c ctr) (delay.Enumerator, error) { return ucq.EnumerateEq1(db, c) }},
					}, func(m []Measured) ([]any, error) {
						return []any{n, m[0].Outputs, m[0].MaxDelaySteps, float64(m[1].TotalSteps) / float64(m[1].Outputs)}, nil
					}, nil
			}}
		},
	}},
	Shape: []string{"shape: both stay flat in n — the union is free-connex by extension (Thm 4.13)",
		"even though φ1 alone admits no constant-delay enumeration."},
}

var e10 = Experiment{
	ID: "E10", Title: "ACQ< expresses k-clique: the Theorem 4.15 reduction",
	Tables: []Table{{
		Bench: "E10CliqueEncoding", Param: "k",
		Intro: []string{"Theorem 4.15: D ⊨ φ_k iff G has a k-clique (random G, n=9)"},
		Cols:  []string{"k:4", "vars(2k²):12", "viaACQ<:10", "brute:10", "time:12", "agree:8"},
		Sizes: sizes([]int{2, 3, 4}, []int{2, 3}, []int{2, 3, 4}),
		Setup: func(r *Run) Sweep {
			rng, n := r.Rand(5), 9
			adj := make([][]bool, n)
			for i := range adj {
				adj[i] = make([]bool, n)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Intn(100) < 40 {
						adj[i][j], adj[j][i] = true, true
					}
				}
			}
			return Sweep{Build: func(k int) ([]Op, Row, error) {
				return []Op{{Do: func(ctr) (any, error) { return ineq.DecideClique(adj, k) }}},
					func(m []Measured) ([]any, error) {
						got, want := m[0].Value.(bool), ineq.HasCliqueBrute(adj, k)
						return []any{k, 2 * k * k, got, want, m[0].Wall, got == want}, nil
					}, nil
			}}
		},
	}},
	Shape: []string{"shape: the query is acyclic yet the time explodes with k — W[1]-hardness of ACQ<."},
}

var e11 = Experiment{
	ID: "E11", Title: "Covers, minimal covers, representative sets; ACQ≠ constant delay (Defs 4.16–4.19, Thm 4.20)",
	Tables: []Table{{Note: func(r *Run) error {
		tb := ineq.Table{K: 4, Rows: []database.Tuple{
			{1, 2, 4, 5}, {1, 5, 1, 5}, {3, 2, 4, 5}, {3, 5, 3, 5}, {5, 2, 4, 5}, {2, 2, 4, 5},
		}}
		r.Printf("Example 4.19 table (rows a..f):\n  minimal covers (%d ≤ k! = 24):", len(tb.MinimalCovers()))
		for _, c := range tb.MinimalCovers() {
			r.Printf(" %s", ineq.CoverString(c))
		}
		r.Printf("\n  representative set size: %d (paper's example: {a,b,c,d})\n", len(tb.RepresentativeSet()))
		r.Printf("  total covers (exhaustive): %d (the paper's rough count: 64)\n", len(tb.AllCovers()))
		return nil
	}}, {
		Bench: "E11Disequalities", Param: "n",
		Intro: []string{"\nACQ≠ Q(x,y) :- A(x,y), B(y,z), x != z  (disequality with a quantified variable)"},
		Cols:  []string{"n:8", "answers:10", "avgΔsteps:14.1", "prep:12"},
		Sizes: sizes([]int{2000, 8000, 32000}, []int{500, 2000}, []int{2000, 8000}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			db := modChainDB(n, 97, func(i int) int { return (i + 1) % 31 })
			return []Op{{Label: "neq", Enum: func(c ctr) (delay.Enumerator, error) { return ineq.EnumerateNeq(db, chainNeq, c) }}},
				func(m []Measured) ([]any, error) {
					return []any{n, m[0].Outputs, float64(m[0].TotalSteps) / float64(m[0].Outputs), m[0].PreprocessTime}, nil
				}, nil
		}),
	}},
	Shape: []string{"shape: per-answer delay flat in n — free-connexity still captures constant delay",
		"in the presence of disequalities (Thm 4.20), via representative witnesses."},
}

var e12 = Experiment{
	ID: "E12", Title: "Weighted counting of quantifier-free ACQs over three (semi)fields; matchings via Eq 2 (Thm 4.21/4.22)",
	Tables: []Table{{
		Bench: "E12WeightedCount", Param: "n",
		Intro: []string{"♯FACQ⁰: weighted counting of the projection-free chain Q(x,y,z) :- R(x,y), S(y,z)"},
		Cols:  []string{"n:8", "count:14", "bigint:14", "GF(2^61-1):14", "rationals:14"},
		Sizes: sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}, []int{1 << 12, 1 << 14}),
		Setup: func(r *Run) Sweep {
			gf := counting.NewGF(1<<61 - 1)
			inverse := func(v database.Value) interface{} { return big.NewRat(1, int64(v%7+1)) }
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				db := randomDB(r.Rand(7), n, n/2, "R", "S")
				return []Op{
						{Name: "BigInt", Do: func(ctr) (any, error) { return countChain2(db) }},
						{Name: "GF", Do: func(ctr) (any, error) {
							return counting.CountQuantifierFree(db, chain2Full, counting.UnitWeight(gf), gf, nil)
						}},
						{Name: "Rational", Do: func(ctr) (any, error) {
							return counting.CountQuantifierFree(db, chain2Full, inverse, counting.Rational{}, nil)
						}},
					}, func(m []Measured) ([]any, error) {
						return []any{n, counting.BigInt{}.String(m[0].Value), m[0].Wall, m[1].Wall, m[2].Wall}, nil
					}, nil
			}}
		},
	}, {
		Bench: "E12WeightedCount", Param: "n",
		Intro: []string{"\nperfect matchings via Equation 2 (vs Ryser's permanent):"},
		Cols:  []string{"n:4", "viaACQ:12", "permanent:12", "time:10"},
		Sizes: sizes([]int{2, 3, 4, 5, 6}, []int{2, 3, 4, 5}, []int{5}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			adj := graphs.RandomBipartite(r.Rand(8), n, 0.6)
			return []Op{{Name: "MatchingsEq2", Do: func(ctr) (any, error) { return counting.PerfectMatchingsViaACQ(adj) }}},
				func(m []Measured) ([]any, error) {
					return []any{n, m[0].Value, counting.Permanent(adj), m[0].Wall}, nil
				}, nil
		}),
	}, {
		// The Theorem 4.21 counting DP never builds the answer set;
		// materializing it first pays for the full join. The y-domain is
		// √n wide, so |join| ≈ n·√n ≫ ‖D‖.
		Bench: "AblationCountVsMaterialize", Sizes: sizes(nil, nil, []int{1 << 12}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			rng, sq := r.Rand(4), 64
			rr, s := database.NewRelation("R", 2), database.NewRelation("S", 2)
			for i := 0; i < n; i++ {
				rr.InsertValues(database.Value(rng.Intn(n)+1), database.Value(rng.Intn(sq)+1))
				s.InsertValues(database.Value(rng.Intn(sq)+1), database.Value(rng.Intn(n)+1))
			}
			rr.Dedup()
			s.Dedup()
			db := dbOf(rr, s)
			return []Op{
				{Name: "CountingDP", Do: func(ctr) (any, error) { return countChain2(db) }},
				run("MaterializeThenCount", func() error { _, err := cq.Eval(db, chain2Full, nil); return err }),
			}, nil, nil
		}),
	}},
}

var e13 = Experiment{
	ID: "E13", Title: "♯ACQ cost grows as ‖D‖^k with the quantified star size k (Thm 4.28)",
	Tables: []Table{{
		Bench: "E13StarSize", Param: "k",
		Intro: []string{"star queries ψ_k(x1..xk) = ∃t ⋀ E_i(t,x_i): quantified star size k"},
		Cols:  []string{"k:4", "n:8", "starSize:12", "countTime:14"},
		Sizes: sizes([]int{1, 2, 3, 4}, []int{1, 2, 3, 4}, []int{1, 2, 3, 4}),
		Setup: func(r *Run) Sweep {
			n := r.Pick(400, 120, 200)
			return Sweep{Build: func(k int) ([]Op, Row, error) {
				q := &logic.CQ{Name: "Psi"}
				db := database.NewDatabase()
				for i := 1; i <= k; i++ {
					x, name := fmt.Sprintf("x%d", i), fmt.Sprintf("E%d", i)
					q.Head = append(q.Head, x)
					q.Atoms = append(q.Atoms, logic.NewAtom(name, "t", x))
					db.AddRelation(graphs.RandomRelation(r.Rand(9), name, 2, n, n/4))
				}
				return []Op{{Do: func(ctr) (any, error) { return counting.Count(db, q, unitBigInt, counting.BigInt{}, nil) }}},
					func(m []Measured) ([]any, error) { return []any{k, n, q.QuantifiedStarSize(), m[0].Wall}, nil }, nil
			}}
		},
	}},
	Shape: []string{"shape: time grows roughly like n^k — the (‖D‖+‖φ‖)^O(k) of Theorem 4.28;",
		"unbounded star size makes counting #W[1]-hard."},
}

var e14 = Experiment{
	ID: "E14", Title: "β-acyclic NCQ/SAT: nest-point Davis–Putnam vs DPLL (Thm 4.31)",
	Tables: []Table{{
		Bench: "E14BetaAcyclic", Param: "n",
		Intro: []string{"β-acyclic CNF (interval scopes): nest-point Davis–Putnam vs DPLL"},
		Cols:  []string{"vars:8", "clauses:10", "nestPointDP:14", "DPLL:14", "agree:8"},
		Sizes: sizes([]int{200, 800, 3200}, []int{100, 400}, []int{200, 800}),
		Setup: func(r *Run) Sweep {
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				f := ncq.RandomIntervalCNF(r.Rand(10), n, 2*n, 6)
				return []Op{
						{Name: "NestPointDP", Do: func(ctr) (any, error) { return f.SolveBetaAcyclic() }},
						{Name: "DPLL", Do: func(ctr) (any, error) { return f.SolveDPLL(), nil }},
					}, func(m []Measured) ([]any, error) {
						return []any{n, len(f.Clauses), m[0].Wall, m[1].Wall, m[0].Value == m[1].Value}, nil
					}, nil
			}, After: func() error {
				_, err := ncq.TriangleCNF().SolveBetaAcyclic()
				r.Printf("covered-triangle CNF (α- but not β-acyclic) rejected by the β-solver: %v\n", err != nil)
				return nil
			}}
		},
	}, {
		// The β-acyclic solver against brute-force search on an instance
		// small enough for both.
		Bench: "AblationBetaVsBrute", Sizes: sizes(nil, nil, []int{18}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			f := ncq.RandomIntervalCNF(r.Rand(5), n, 40, 4)
			return []Op{
				{Name: "NestPointDP", Do: func(ctr) (any, error) { return f.SolveBetaAcyclic() }},
				{Name: "BruteForce", Do: func(ctr) (any, error) { return f.SolveBrute(), nil }},
			}, nil, nil
		}),
	}},
	Shape: []string{"shape: the nest-point elimination is quasi-linear BY CONSTRUCTION — its bound",
		"holds on every β-acyclic instance, while DPLL (fast on these random intervals)",
		"is exponential in the worst case. Theorem 4.31: under Triangle, β-acyclicity",
		"is exactly the quasi-linear frontier for NCQs."},
}
