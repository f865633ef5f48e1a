package experiments

// First-order and MSO model checking, counting and enumeration: Section 3
// (E1–E3, E16) and the prefix classes of Section 5 (E15).

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/delay"
	"repro/internal/fodeg"
	"repro/internal/graphs"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/mso"
	"repro/internal/prefix"
)

var e1 = Experiment{
	ID: "E1", Title: "FO on bounded-degree structures: linear MC/count, constant-delay enumeration (Thm 3.1/3.2)",
	Tables: []Table{{
		Bench: "E1BoundedDegreeFO", Param: "n",
		Intro: []string{"cycle graph with predicate P on every 3rd vertex;",
			"MC: ∀x(P(x) → ∃y E(x,y));  enum/count: φ(x) = ∃y (E(x,y) ∧ P(y))"},
		Cols:  []string{"n:8", "mcTime:12", "mcTime/n:12.1", "countTime:14", "count:12", "enumMaxΔ:10", "prepTime:12"},
		Sizes: sizes([]int{1 << 12, 1 << 14, 1 << 16, 1 << 17}, []int{1 << 10, 1 << 12}, []int{1 << 12, 1 << 15}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			s, err := graphStructure(graphs.Cycle(n), n, func(i int) bool { return i%3 == 0 })
			if err != nil {
				return nil, nil, err
			}
			p, _ := s.PredID("P")
			edge := edgeFormula(s, "x", "y")
			mc := fodeg.All{Var: "x", F: fodeg.Disj{Fs: []fodeg.Formula{
				fodeg.Not{F: fodeg.Pr{Pred: p, T: fodeg.V("x")}}, fodeg.Ex{Var: "y", F: edge}}}}
			q := fodeg.Ex{Var: "y", F: fodeg.Conj{Fs: []fodeg.Formula{edge, fodeg.Pr{Pred: p, T: fodeg.V("y")}}}}
			return []Op{
					{Name: "ModelCheck", Do: func(ctr) (any, error) { return s.ModelCheck(mc) }},
					{Name: "Count", Do: func(ctr) (any, error) { return s.Count(q, []string{"x"}) }},
					{Name: "Enumerate", Label: "enum", Enum: func(c ctr) (delay.Enumerator, error) { return s.Enumerate(q, []string{"x"}, c) }},
				}, func(m []Measured) ([]any, error) {
					return []any{n, m[0].Wall, perN(m[0].Wall, n), m[1].Wall, m[1].Value, m[2].MaxDelaySteps, m[2].PreprocessTime}, nil
				}, nil
		}),
	}},
	Shape: []string{"shape: mcTime/n flat (linear-time MC); enumMaxΔ flat (constant delay)."},
}

var e2 = Experiment{
	ID: "E2", Title: "FO on the low-degree class of Def 3.8 (clique + 2^k independents) (Thm 3.9/3.10)",
	Tables: []Table{{
		Bench: "E2LowDegree", Param: "k",
		Intro: []string{"low-degree class: clique(k) + 2^k isolated vertices; degree = k−1 = O(log n)",
			"MC: ∃x∃y∃z (E(x,y) ∧ E(y,z))  — a path through the clique"},
		Cols:  []string{"k:4", "n:10", "degree:8", "mcTime:12", "mcTime/n(ns):14.1"},
		Sizes: sizes([]int{8, 10, 12, 14, 16}, []int{6, 8, 10}, []int{8, 12}),
		Setup: each(func(r *Run, k int) ([]Op, Row, error) {
			edges, n := graphs.CliquePlusIndependent(k)
			s, err := graphStructure(edges, n, func(int) bool { return false })
			if err != nil {
				return nil, nil, err
			}
			mc := fodeg.Ex{Var: "x", F: fodeg.Ex{Var: "y", F: fodeg.Conj{Fs: []fodeg.Formula{
				edgeFormula(s, "x", "y"), fodeg.Ex{Var: "z", F: edgeFormula(s, "y", "z")}}}}}
			return []Op{{Name: "ModelCheck", Do: func(ctr) (any, error) { return s.ModelCheck(mc) }}},
				func(m []Measured) ([]any, error) {
					return []any{k, n, graphs.Degree(edges, n), m[0].Wall, perN(m[0].Wall, n)}, nil
				}, nil
		}),
	}},
	Shape: []string{"shape: time/n grows only with the degree bound k−1 = O(log n) — the n^(1+ε)",
		"pseudo-linear regime of Theorems 3.9/3.10; the class is NOT closed under",
		"substructures (its clique alone has degree ≫ log of its own size)."},
}

var (
	msoLeafCheck = logictest.MustParseFormula("forall x. (Leaf(x) -> exists y. Child(y,x))")
	msoSetQuery  = logictest.MustParseFormula("(exists z. z in X) and forall y. (y in X -> a(y))")
)

var e3 = Experiment{
	ID: "E3", Title: "MSO on trees: linear model checking, counting, output-linear enumeration (Thm 3.11/3.12)",
	Tables: []Table{{
		Bench: "E3MSOTrees", Param: "n",
		Intro: []string{"MSO over path trees: MC φ = ∀x(Leaf(x) → ∃y Child(y,x)); count/enum over set query"},
		Cols:  []string{"n:8", "mcTime:12", "mcTime/n:12.1", "countTime:14", "enum: answers, maxΔsteps:22"},
		Sizes: sizes([]int{1000, 4000, 16000, 32000}, []int{500, 2000}, []int{1000, 8000}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			labels := make([]int, n)
			for i := 0; i < n; i += 2 {
				labels[i] = 1
			}
			tr := mso.Path(n, labels, []string{"a", "b"})
			// The set query has 2^(n/2)−1 answers: the delay is sampled
			// over the first 50, by the op itself.
			var outputs int
			var maxD int64
			enum50 := func(c ctr) (any, error) {
				e, err := mso.Enumerate(tr, msoSetQuery, c)
				if err != nil {
					return nil, err
				}
				c.MarkStart()
				outputs, maxD = 0, 0
				for last := c.Steps(); outputs < 50; outputs++ {
					_, ok := e.Next()
					c.MarkOutput()
					if !ok {
						break
					}
					maxD = max(maxD, c.Steps()-last)
					last = c.Steps()
				}
				return nil, nil
			}
			return []Op{
					{Name: "ModelCheck", Do: func(ctr) (any, error) { return mso.ModelCheck(tr, msoLeafCheck) }},
					{Name: "Count", Do: func(ctr) (any, error) { return mso.Count(tr, msoSetQuery) }},
					{Name: "Enumerate50", Label: "enum", Do: enum50},
				}, func(m []Measured) ([]any, error) {
					return []any{n, m[0].Wall, perN(m[0].Wall, n), m[1].Wall,
						fmt.Sprintf("%d answers sampled, maxΔ=%d (≈ c·n)", outputs, maxD)}, nil
				}, nil
		}),
	}},
	Shape: []string{"shape: mcTime/n flat (Courcelle); enumeration delay scales with n = output size (Thm 3.12)."},
}

var e15 = Experiment{
	ID: "E15", Title: "Prefix classes: exact #Σ0, Karp–Luby FPRAS for #Σ1, Gray-code enum·Σ0, flashlight enum·Σ1 (Thm 5.3/5.5)",
	Tables: []Table{{
		Bench: "E15Prefix", Param: "n",
		Intro: []string{"exact #Σ0: count (x,X) with  E(x,y)∧x∈X∧y∉X  over random graphs"},
		Cols:  []string{"n:8", "count:16", "time:12"},
		Sizes: sizes([]int{8, 12, 16}, []int{6, 10}, []int{10, 14}),
		Setup: func(r *Run) Sweep {
			f0 := logictest.MustParseFormula("E(x,y) and x in X and not y in X")
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				db := graphs.EdgesToDB(graphs.RandomBoundedDegree(r.Rand(11), n, 3), n)
				return []Op{{Name: "CountSigma0", Do: func(ctr) (any, error) { return prefix.CountSigma0(db, f0) }}},
					func(m []Measured) ([]any, error) { return []any{n, m[0].Value, m[0].Wall}, nil }, nil
			}}
		},
	}, {
		Bench: "E15Prefix", Param: "vars",
		Intro: []string{"\n#Σ1 / #DNF FPRAS (Karp–Luby) vs exact, ε = 0.1:"},
		Cols:  []string{"vars:6", "cubes:10", "exact:14", "estimate:14", "relErr:10.3"},
		Sizes: sizes([]int{12, 16, 20}, []int{10, 12}, []int{16}),
		Setup: func(r *Run) Sweep {
			rng := r.Rand(11) // continues the stream of the #Σ0 table
			return Sweep{Build: func(nv int) ([]Op, Row, error) {
				f := prefix.RandomDNF3(rng, nv, nv)
				cubes := f.Cubes()
				return []Op{
						{Name: "ExactDNF", Do: func(ctr) (any, error) { return f.CountExact(), nil }},
						{Name: "KarpLuby", Do: func(ctr) (any, error) { return prefix.KarpLuby(cubes, f.N, 0.1, rng) }},
					}, func(m []Measured) ([]any, error) {
						exact, est, rel := m[0].Value.(*big.Int), m[1].Value.(*big.Int), 0.0
						if exact.Sign() > 0 {
							diff := new(big.Int).Sub(est, exact)
							rel = float64(diff.Abs(diff).Int64()) / float64(exact.Int64())
						}
						return []any{nv, len(cubes), exact, est, rel}, nil
					}, nil
			}}
		},
	}, {
		Bench: "E15Prefix", Param: "n",
		Intro: []string{"\nenum·Σ0 with Gray-code delta-constant delay:  V(x) ∧ x∈X"},
		Sizes: sizes([]int{10}, []int{10}, []int{10}),
		Setup: func(*Run) Sweep {
			g0 := logictest.MustParseFormula("V(x) and x in X")
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				db := graphs.EdgesToDB(graphs.Cycle(n), n)
				var answers []*prefix.SetAnswer
				gray := run("GrayEnumSigma0", func() error {
					e, err := prefix.EnumerateSigma0(db, g0, nil)
					if err == nil {
						answers = prefix.CollectSetAnswers(e)
					}
					return err
				})
				return []Op{gray}, func([]Measured) ([]any, error) {
					maxDelta := 0
					for _, a := range answers {
						maxDelta = max(maxDelta, a.Delta)
					}
					return []any{fmt.Sprintf("n=%d: %d answers, max delta = %d output cells (Thm 5.5: constant)", n, len(answers), maxDelta)}, nil
				}, nil
			}}
		},
	}, {
		Bench: "E15Prefix", Param: "n",
		Intro: []string{"\nenum·Σ1 with polynomial delay (flashlight):  ∃x (x∈X ∧ V(x))"},
		Sizes: sizes([]int{8}, []int{8}, []int{8}),
		Setup: func(*Run) Sweep {
			g1 := logictest.MustParseFormula("exists x. (x in X and V(x))")
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				db := graphs.EdgesToDB(graphs.Cycle(n), n)
				flash := Op{Name: "FlashlightSigma1", Label: "sigma1", Do: func(c ctr) (any, error) {
					e, err := prefix.EnumerateSigma1(db, g1, c)
					if err != nil {
						return nil, err
					}
					return len(prefix.CollectSetAnswers(e)), nil
				}}
				return []Op{flash}, func(m []Measured) ([]any, error) {
					answers := m[0].Value.(int)
					return []any{fmt.Sprintf("n=%d: %d answers (= 2^%d − 1 nonempty sets), %d total steps, %.1f steps/answer",
						n, answers, n, m[0].Steps, float64(m[0].Steps)/float64(answers))}, nil
				}, nil
			}}
		},
	}},
}

var e16 = Experiment{
	ID: "E16", Title: "Generic FO evaluation baseline: ‖φ‖·‖D‖^h (Section 3 preamble)",
	Tables: []Table{{
		Bench: "E16NaiveFO",
		Intro: []string{"naive FO evaluation of the h-variable clique query (all h-cliques counted,",
			"no existential short-circuit): time ~ n^h"},
		Cols: []string{"h:4", "n:8", "cliques:10", "time:12"},
		// A sweep point is 1000·h + n: h outermost, as the one seeded
		// graph stream is drawn in that order.
		Sizes: sizes([]int{2030, 2060, 3030, 3060, 4030, 4060}, []int{2015, 2030, 3015, 3030, 4015, 4030}, []int{2024, 3024}),
		Setup: each(func(r *Run, point int) ([]Op, Row, error) {
			h, n := point/1000, point%1000
			db := graphs.EdgesToDB(graphs.RandomBoundedDegree(r.Rand(12), n, 6), n)
			var parts, vars []string
			for i := 1; i <= h; i++ {
				vars = append(vars, fmt.Sprintf("x%d", i))
				for j := i + 1; j <= h; j++ {
					parts = append(parts, fmt.Sprintf("(E(x%d,x%d) and not x%d = x%d)", i, j, i, j))
				}
			}
			f, err := logic.ParseFormula(strings.Join(parts, " and "))
			if err != nil {
				return nil, nil, err
			}
			cliques := 0
			eval := run(fmt.Sprintf("h=%d", h), func() error { cliques = len(logic.EvalFO(db, f, vars)); return nil })
			return []Op{eval}, func(m []Measured) ([]any, error) { return []any{h, n, cliques, m[0].Wall}, nil }, nil
		}),
	}},
	Shape: []string{"shape: doubling n multiplies time by ≈ 2^h — the ‖φ‖·‖D‖^h baseline that the",
		"AW[*]-hardness of clique forbids improving to a fixed exponent (Section 3)."},
}
