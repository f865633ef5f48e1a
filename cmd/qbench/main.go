// Command qbench regenerates every experiment of DESIGN.md (E1–E20, E22, E24),
// printing one paper-style table per experiment. Each experiment validates
// the *shape* of a complexity bound stated in the paper — linear scaling,
// constant vs linear delay, the n^k star-size sweep, the
// matrix-multiplication reduction, and so on.
//
// Usage:
//
//	qbench            # run everything at default sizes
//	qbench -quick     # smaller sizes
//	qbench -run E5    # a single experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/boolmat"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/fodeg"
	"repro/internal/graphs"
	"repro/internal/hypergraph"
	"repro/internal/ineq"
	"repro/internal/logic"
	"repro/internal/mso"
	"repro/internal/ncq"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/prefix"
	"repro/internal/ucq"
)

var (
	quick      = flag.Bool("quick", false, "smaller instance sizes")
	run        = flag.String("run", "", "run a subset of experiments (comma-separated, e.g. E5,E18)")
	parallel   = flag.Int("parallel", 0, "worker count for the parallel Yannakakis engine (E18); 0 = GOMAXPROCS")
	repeat     = flag.Int("repeat", 8, "executions per query in the plan-cache amortization experiment (E19)")
	jsonOut    = flag.String("json", "", "write a machine-readable report (wall ns, allocs, counted steps) to this file")
	traceOut   = flag.String("trace", "", "write an observability trace (delay histograms, phase spans) to this file")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file")
)

type experiment struct {
	id    string
	title string
	fn    func()
}

// expReport is one experiment's entry in the -json report. Allocs and
// AllocBytes are runtime.MemStats deltas across the experiment, so they
// include instance generation; the per-operation numbers live in the
// internal/database micro-benchmarks.
type expReport struct {
	ID         string                 `json:"id"`
	Title      string                 `json:"title"`
	WallNS     int64                  `json:"wall_ns"`
	Allocs     uint64                 `json:"allocs"`
	AllocBytes uint64                 `json:"alloc_bytes"`
	Extra      map[string]interface{} `json:"extra,omitempty"`
}

// curExtra collects experiment-specific metrics (counted steps, delays)
// while an experiment function runs; record() is a no-op outside -json runs.
var curExtra map[string]interface{}

func record(key string, value interface{}) {
	if curExtra != nil {
		curExtra[key] = value
	}
}

// curObs tracks the observers attached by newCounter during the current
// experiment; the main loop drains it after the experiment returns, folding
// each observer's snapshot into the -trace output and its delay quantiles
// into the -json extras (where cmd/benchgate's p99 gate picks them up).
var curObs []struct {
	label string
	o     *obs.Observer
}

// newCounter returns the step counter for one instrumented engine run.
// With -trace or -json an obs.Observer is attached as the counter's sink;
// otherwise the counter is sink-free and the observability hooks cost one
// branch (see internal/obs).
func newCounter(label string) *delay.Counter {
	c := &delay.Counter{}
	if *traceOut != "" || *jsonOut != "" {
		o := obs.New()
		c.SetSink(o)
		curObs = append(curObs, struct {
			label string
			o     *obs.Observer
		}{label, o})
	}
	return c
}

func main() {
	flag.Parse()
	exps := []experiment{
		{"E1", "FO on bounded-degree structures: linear MC/count, constant-delay enumeration (Thm 3.1/3.2)", e1},
		{"E2", "FO on the low-degree class of Def 3.8 (clique + 2^k independents) (Thm 3.9/3.10)", e2},
		{"E3", "MSO on trees: linear model checking, counting, output-linear enumeration (Thm 3.11/3.12)", e3},
		{"E4", "Yannakakis evaluation: time O(‖φ‖·‖D‖·‖φ(D)‖) (Thm 4.2)", e4},
		{"E5", "Linear vs constant delay enumeration (Thm 4.3 vs 4.6)", e5},
		{"E6", "The Mat-Mul frontier: Π(x,y) enumeration is matrix multiplication (Thm 4.8, Ex 4.5/4.7)", e6},
		{"E7", "Figure 1: the free-connex join tree construction", e7},
		{"E8", "Figures 2–3: S-components and quantified star size (Ex 4.24/4.27)", e8},
		{"E9", "Union of CQs: Equation 1 enumeration via union extensions (Thm 4.13)", e9},
		{"E10", "ACQ< expresses k-clique: the Theorem 4.15 reduction", e10},
		{"E11", "Covers, minimal covers, representative sets; ACQ≠ constant delay (Defs 4.16–4.19, Thm 4.20)", e11},
		{"E12", "Weighted counting of quantifier-free ACQs over three (semi)fields; matchings via Eq 2 (Thm 4.21/4.22)", e12},
		{"E13", "♯ACQ cost grows as ‖D‖^k with the quantified star size k (Thm 4.28)", e13},
		{"E14", "β-acyclic NCQ/SAT: nest-point Davis–Putnam vs DPLL (Thm 4.31)", e14},
		{"E15", "Prefix classes: exact #Σ0, Karp–Luby FPRAS for #Σ1, Gray-code enum·Σ0, flashlight enum·Σ1 (Thm 5.3/5.5)", e15},
		{"E16", "Generic FO evaluation baseline: ‖φ‖·‖D‖^h (Section 3 preamble)", e16},
		{"E17", "Extension: random access and random-order enumeration for free-connex ACQs ([23], §4.3)", e17},
		{"E18", "Extension: parallel Yannakakis with sharded hash joins — wall time scales with cores, counted steps do not", e18},
		{"E19", "Extension: Compile → Bind → Execute amortization — bind once, execute N times through the plan cache", e19},
		{"E20", "Extension: delta-binding — steady-state single-tuple updates via Refresh vs the full re-Bind cliff", e20},
		{"E22", "Extension: vectorized batch probes — scalar vs batched semijoin/join kernels, counted steps bit-identical", e22},
		{"E24", "Extension: out-of-core snapshots — text parse vs snapshot read vs mmap cold start, counted steps bit-identical", e24},
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		check(err)
		defer func() { check(stop()) }()
	}
	// Validate -run against the registry: a typo used to silently run
	// nothing at all, which reads as "everything passed" in CI logs.
	valid := make(map[string]bool, len(exps))
	ids := make([]string, len(exps))
	for i, e := range exps {
		valid[strings.ToUpper(e.id)] = true
		ids[i] = e.id
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !valid[strings.ToUpper(id)] {
			fmt.Fprintf(os.Stderr, "qbench: unknown experiment %q; valid ids: %s\n", id, strings.Join(ids, ", "))
			os.Exit(2)
		}
		wanted[strings.ToUpper(id)] = true
	}
	var reports []expReport
	var traces []obs.Trace
	for _, e := range exps {
		if len(wanted) > 0 && !wanted[strings.ToUpper(e.id)] {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
		if *jsonOut != "" {
			curExtra = map[string]interface{}{}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		e.fn()
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		fmt.Printf("[%s done in %v]\n", e.id, wall.Round(time.Millisecond))
		for _, to := range curObs {
			snap := to.o.Snapshot(e.id + "/" + to.label)
			if *traceOut != "" {
				traces = append(traces, snap)
			}
			if snap.DelaySteps.Count > 0 {
				record(to.label+"_delay_p99_steps", snap.DelaySteps.P99)
				record(to.label+"_delay_max_steps", snap.DelaySteps.Max)
			}
		}
		curObs = nil
		if *jsonOut != "" {
			rep := expReport{
				ID: e.id, Title: e.title, WallNS: wall.Nanoseconds(),
				Allocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
			}
			if len(curExtra) > 0 {
				rep.Extra = curExtra
			}
			reports = append(reports, rep)
			curExtra = nil
		}
	}
	if *memprofile != "" {
		check(obs.WriteHeapProfile(*memprofile))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		check(err)
		check(obs.WriteTrace(f, traces))
		check(f.Close())
		fmt.Printf("\nwrote %s\n", *traceOut)
	}
	if *jsonOut != "" {
		out := struct {
			GoVersion   string      `json:"go_version"`
			GOMAXPROCS  int         `json:"gomaxprocs"`
			Quick       bool        `json:"quick"`
			Experiments []expReport `json:"experiments"`
		}{runtime.Version(), runtime.GOMAXPROCS(0), *quick, reports}
		data, err := json.MarshalIndent(out, "", "  ")
		check(err)
		check(os.WriteFile(*jsonOut, append(data, '\n'), 0o644))
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}
}

func sizes(full []int, q []int) []int {
	if *quick {
		return q
	}
	return full
}

// ---------------------------------------------------------------- E1

func e1() {
	fmt.Println("cycle graph with predicate P on every 3rd vertex;")
	fmt.Println("MC: ∀x(P(x) → ∃y E(x,y));  enum/count: φ(x) = ∃y (E(x,y) ∧ P(y))")
	fmt.Printf("%-8s %-12s %-12s %-14s %-12s %-10s %-12s\n",
		"n", "mcTime", "mcTime/n", "countTime", "count", "enumMaxΔ", "prepTime")
	for _, n := range sizes([]int{1 << 12, 1 << 14, 1 << 16, 1 << 17}, []int{1 << 10, 1 << 12}) {
		edges := graphs.Cycle(n)
		pred := make([]bool, n)
		for i := range pred {
			pred[i] = i%3 == 0
		}
		s, err := fodeg.FromGraph(n, edgePairs(edges), map[string][]bool{"P": pred})
		check(err)
		p, _ := s.PredID("P")
		edge := edgeDisj(s, "x", "y")
		mc := fodeg.All{Var: "x", F: fodeg.Disj{Fs: []fodeg.Formula{
			fodeg.Not{F: fodeg.Pr{Pred: p, T: fodeg.V("x")}},
			fodeg.Ex{Var: "y", F: edge},
		}}}
		t0 := time.Now()
		_, err = s.ModelCheck(mc)
		check(err)
		mcTime := time.Since(t0)

		q := fodeg.Ex{Var: "y", F: fodeg.Conj{Fs: []fodeg.Formula{edge, fodeg.Pr{Pred: p, T: fodeg.V("y")}}}}
		t0 = time.Now()
		cnt, err := s.Count(q, []string{"x"})
		check(err)
		countTime := time.Since(t0)

		c := newCounter(fmt.Sprintf("enum_n%d", n))
		st, _ := delay.Measure(c, func() delay.Enumerator {
			e, err := s.Enumerate(q, []string{"x"}, c)
			check(err)
			return e
		})
		fmt.Printf("%-8d %-12v %-12.1f %-14v %-12s %-10d %-12v\n",
			n, mcTime.Round(time.Microsecond), float64(mcTime.Nanoseconds())/float64(n),
			countTime.Round(time.Microsecond), cnt, st.MaxDelaySteps, st.PreprocessTime.Round(time.Microsecond))
	}
	fmt.Println("shape: mcTime/n flat (linear-time MC); enumMaxΔ flat (constant delay).")
}

func edgePairs(es []graphs.Edge) [][2]int {
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e[0], e[1]}
	}
	return out
}

func edgeDisj(s *fodeg.Structure, x, y string) fodeg.Formula {
	var ds []fodeg.Formula
	for _, f := range s.EdgeFuncIDs() {
		ds = append(ds, fodeg.Eq{T1: fodeg.Ap(fodeg.V(x), f), T2: fodeg.V(y)})
	}
	return fodeg.Disj{Fs: ds}
}

// ---------------------------------------------------------------- E2

func e2() {
	fmt.Println("low-degree class: clique(k) + 2^k isolated vertices; degree = k−1 = O(log n)")
	fmt.Println("MC: ∃x∃y∃z (E(x,y) ∧ E(y,z))  — a path through the clique")
	fmt.Printf("%-4s %-10s %-8s %-12s %-14s\n", "k", "n", "degree", "mcTime", "mcTime/n(ns)")
	for _, k := range sizes([]int{8, 10, 12, 14, 16}, []int{6, 8, 10}) {
		edges, n := graphs.CliquePlusIndependent(k)
		s, err := fodeg.FromGraph(n, edgePairs(edges), map[string][]bool{"P": make([]bool, n)})
		check(err)
		mc := fodeg.Ex{Var: "x", F: fodeg.Ex{Var: "y", F: fodeg.Conj{Fs: []fodeg.Formula{
			edgeDisj(s, "x", "y"),
			fodeg.Ex{Var: "z", F: edgeDisj(s, "y", "z")},
		}}}}
		t0 := time.Now()
		_, err = s.ModelCheck(mc)
		check(err)
		mcTime := time.Since(t0)
		fmt.Printf("%-4d %-10d %-8d %-12v %-14.1f\n",
			k, n, graphs.Degree(edges, n), mcTime.Round(time.Microsecond),
			float64(mcTime.Nanoseconds())/float64(n))
	}
	fmt.Println("shape: time/n grows only with the degree bound k−1 = O(log n) — the n^(1+ε)")
	fmt.Println("pseudo-linear regime of Theorems 3.9/3.10; the class is NOT closed under")
	fmt.Println("substructures (its clique alone has degree ≫ log of its own size).")
}

// ---------------------------------------------------------------- E3

func e3() {
	fmt.Println("MSO over path trees: MC φ = ∀x(Leaf(x) → ∃y Child(y,x)); count/enum over set query")
	fmt.Printf("%-8s %-12s %-12s %-14s %-22s\n", "n", "mcTime", "mcTime/n", "countTime", "enum: answers, maxΔsteps")
	mcF := mustFormula("forall x. (Leaf(x) -> exists y. Child(y,x))")
	setF := mustFormula("(exists z. z in X) and forall y. (y in X -> a(y))")
	for _, n := range sizes([]int{1000, 4000, 16000, 32000}, []int{500, 2000}) {
		labels := make([]int, n)
		for i := range labels {
			if i%2 == 0 {
				labels[i] = 1
			}
		}
		tr := mso.Path(n, labels, []string{"a", "b"})
		t0 := time.Now()
		_, err := mso.ModelCheck(tr, mcF)
		check(err)
		mcTime := time.Since(t0)

		// Count over a tiny tree slice for the set query (the answer count
		// is 2^(n/2)−1, so we count on the full tree — big.Int handles it).
		t0 = time.Now()
		cnt, err := mso.Count(tr, setF)
		check(err)
		countTime := time.Since(t0)
		_ = cnt

		c := newCounter(fmt.Sprintf("enum_n%d", n))
		e, err := mso.Enumerate(tr, setF, c)
		check(err)
		c.MarkStart()
		outputs := 0
		last := c.Steps()
		var maxD int64
		for outputs < 50 {
			_, ok := e.Next()
			c.MarkOutput()
			if !ok {
				break
			}
			outputs++
			d := c.Steps() - last
			last = c.Steps()
			if d > maxD {
				maxD = d
			}
		}
		fmt.Printf("%-8d %-12v %-12.1f %-14v %d answers sampled, maxΔ=%d (≈ c·n)\n",
			n, mcTime.Round(time.Microsecond), float64(mcTime.Nanoseconds())/float64(n),
			countTime.Round(time.Microsecond), outputs, maxD)
	}
	fmt.Println("shape: mcTime/n flat (Courcelle); enumeration delay scales with n = output size (Thm 3.12).")
}

// ---------------------------------------------------------------- E4

func e4() {
	fmt.Println("3-chain query Q(x,w) :- R(x,y), S(y,z), T(z,w) over random relations")
	fmt.Printf("%-8s %-10s %-12s %-16s\n", "|R|", "answers", "evalTime", "time/(‖D‖+out)ns")
	q := mustCQ("Q(x,w) :- R(x,y), S(y,z), T(z,w).")
	rng := rand.New(rand.NewSource(1))
	for _, n := range sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
		db := database.NewDatabase()
		for _, name := range []string{"R", "S", "T"} {
			db.AddRelation(graphs.RandomRelation(rng, name, 2, n, n/2))
		}
		t0 := time.Now()
		res, err := cq.Eval(db, q)
		check(err)
		el := time.Since(t0)
		denom := float64(3*n + len(res))
		fmt.Printf("%-8d %-10d %-12v %-16.1f\n", n, len(res), el.Round(time.Microsecond),
			float64(el.Nanoseconds())/denom)
	}
	fmt.Println("shape: time tracks input+output (Theorem 4.2's O(‖φ‖·‖D‖·‖φ(D)‖) with small constants).")
}

// ---------------------------------------------------------------- E5

func e5() {
	fmt.Println("free-connex Q(x,y) :- A(x,y), B(y,z): constant- vs linear-delay enumeration")
	fmt.Printf("%-8s %-10s %-14s %-14s %-14s %-14s\n", "n", "answers", "constMaxΔ", "constPrep", "linMaxΔ", "linPrep")
	q := mustCQ("Q(x,y) :- A(x,y), B(y,z).")
	for _, n := range sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
		db := database.NewDatabase()
		a := database.NewRelation("A", 2)
		b := database.NewRelation("B", 2)
		for i := 0; i < n; i++ {
			a.InsertValues(database.Value(i), database.Value(i%199))
			b.InsertValues(database.Value(i%199), database.Value(i%61))
		}
		a.Dedup()
		b.Dedup()
		db.AddRelation(a)
		db.AddRelation(b)

		cc := newCounter(fmt.Sprintf("const_n%d", n))
		stc, _ := delay.Measure(cc, func() delay.Enumerator {
			e, err := cq.EnumerateConstantDelay(db, q, cc)
			check(err)
			return e
		})
		cl := newCounter(fmt.Sprintf("linear_n%d", n))
		stl, _ := delay.Measure(cl, func() delay.Enumerator {
			e, err := cq.EnumerateLinearDelay(db, q, cl)
			check(err)
			return e
		})
		fmt.Printf("%-8d %-10d %-14d %-14v %-14d %-14v\n", n, stc.Outputs,
			stc.MaxDelaySteps, stc.PreprocessTime.Round(time.Microsecond),
			stl.MaxDelaySteps, stl.PreprocessTime.Round(time.Microsecond))
		record(fmt.Sprintf("n%d_const_max_delay_steps", n), stc.MaxDelaySteps)
		record(fmt.Sprintf("n%d_const_prep_ns", n), stc.PreprocessTime.Nanoseconds())
		record(fmt.Sprintf("n%d_linear_max_delay_steps", n), stl.MaxDelaySteps)
	}
	fmt.Println("shape: constMaxΔ flat in n (Thm 4.6); linMaxΔ grows ~linearly (Thm 4.3).")
}

// ---------------------------------------------------------------- E6

func e6() {
	fmt.Println("Boolean matrix multiplication: bit-packed baseline vs enumeration of Π(x,y)")
	fmt.Printf("%-6s %-12s %-12s %-14s %-8s\n", "n", "naive", "bitset", "viaQuery(Π)", "agree")
	rng := rand.New(rand.NewSource(2))
	for _, n := range sizes([]int{128, 256, 384}, []int{64, 128}) {
		a := boolmat.Random(rng, n, 0.05)
		b := boolmat.Random(rng, n, 0.05)
		t0 := time.Now()
		wantM := boolmat.MultiplyNaive(a, b)
		tNaive := time.Since(t0)
		t0 = time.Now()
		bit := boolmat.MultiplyBitset(a, b)
		tBit := time.Since(t0)
		t0 = time.Now()
		viaQ, err := boolmat.MultiplyViaQuery(a, b, nil)
		check(err)
		tQ := time.Since(t0)
		fmt.Printf("%-6d %-12v %-12v %-14v %-8v\n", n, tNaive.Round(time.Microsecond),
			tBit.Round(time.Microsecond), tQ.Round(time.Microsecond),
			bit.Equal(wantM) && viaQ.Equal(wantM))
	}
	// Example 4.7 reduction at a small size.
	a := boolmat.Random(rng, 24, 0.2)
	b := boolmat.Random(rng, 24, 0.2)
	hq, err := boolmat.MultiplyViaHardQuery(a, b)
	check(err)
	fmt.Printf("Example 4.7 reduction database (n=24): product agrees with baseline: %v\n",
		hq.Equal(boolmat.MultiplyNaive(a, b)))
	fmt.Println("shape: Π is acyclic but not free-connex, so its enumeration pays ω(1) delay;")
	fmt.Println("a Constant-Delay_lin enumerator for Π would give O(n²+out) BMM (Thm 4.8).")
}

// ---------------------------------------------------------------- E7

func e7() {
	h := hypergraph.New()
	h.AddEdge(hypergraph.NewEdge("R1", "x1", "x2"))
	h.AddEdge(hypergraph.NewEdge("S1", "x2", "x3", "y3"))
	h.AddEdge(hypergraph.NewEdge("R2", "x1", "y1"))
	h.AddEdge(hypergraph.NewEdge("T", "y3", "y4", "y5"))
	h.AddEdge(hypergraph.NewEdge("S2", "x2", "y2"))
	free := []string{"x1", "x2", "x3"}
	fmt.Printf("query: φ(x1,x2,x3) ≡ ∃y R(x1,x2) ∧ S(x2,x3,y3) ∧ R(x1,y1) ∧ T(y3,y4,y5) ∧ S(x2,y2)\n")
	fmt.Printf("acyclic: %v   free-connex: %v   star size: %d\n",
		hypergraph.IsAcyclic(h), hypergraph.FreeConnex(h, free), hypergraph.QuantifiedStarSize(h, free))
	h2 := h.Clone()
	h2.AddEdge(hypergraph.NewEdge("S'", "x2", "x3"))
	jt, ok := hypergraph.GYO(h2)
	fmt.Printf("with the new hyperedge S'{x2,x3} ⊆ S{x2,x3,y3} the join tree is (valid: %v):\n", ok && jt.Validate() == nil)
	fmt.Print(jt)
}

// ---------------------------------------------------------------- E8

func e8() {
	h := hypergraph.New()
	h.AddEdge(hypergraph.NewEdge("A1", "y1", "x1"))
	h.AddEdge(hypergraph.NewEdge("A2", "x1", "x2", "y2"))
	h.AddEdge(hypergraph.NewEdge("B1", "y3", "x3", "x6"))
	h.AddEdge(hypergraph.NewEdge("B2", "x4", "x6", "x7", "y4", "y3"))
	h.AddEdge(hypergraph.NewEdge("B3", "x7", "y4", "y5", "x8"))
	h.AddEdge(hypergraph.NewEdge("B4", "x8", "y6"))
	h.AddEdge(hypergraph.NewEdge("C1", "y6", "x5", "y7"))
	h.AddEdge(hypergraph.NewEdge("C2", "x5", "x9"))
	s := map[string]bool{}
	for _, v := range []string{"y1", "y2", "y3", "y4", "y5", "y6", "y7"} {
		s[v] = true
	}
	fmt.Println("hypergraph of Figure 2 (reconstruction), S = free = {y1..y7}")
	for i, comp := range hypergraph.SComponents(h, s) {
		var names []string
		for _, ei := range comp.EdgeIdx {
			names = append(names, h.Edges[ei].String())
		}
		ind := comp.IndependentSVertices(h, s)
		fmt.Printf("S-component %d: %s\n  independent S-vertices: %v (size %d)\n",
			i+1, strings.Join(names, " "), ind, len(ind))
	}
	fmt.Printf("S-star size: %d (the paper's example value is 3, via {y3,y5,y6})\n", hypergraph.SStarSize(h, s))
}

// ---------------------------------------------------------------- E9

func e9() {
	fmt.Println("Equation 1 union: φ1 (not free-connex) ∨ φ2 (free-connex), φ2 provides {x,z,y} to φ1")
	fmt.Printf("%-8s %-10s %-18s %-18s\n", "n", "answers", "generic maxΔ", "interleaved avgΔ")
	u := ucq.Eq1Queries()
	for _, n := range sizes([]int{2000, 8000, 32000}, []int{500, 2000}) {
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

		cg := newCounter(fmt.Sprintf("generic_n%d", n))
		stg, _ := delay.Measure(cg, func() delay.Enumerator {
			e, err := ucq.Enumerate(db, u, 2, cg)
			check(err)
			return e
		})
		ci := newCounter(fmt.Sprintf("interleaved_n%d", n))
		sti, _ := delay.Measure(ci, func() delay.Enumerator {
			e, err := ucq.EnumerateEq1(db, ci)
			check(err)
			return e
		})
		avg := float64(sti.TotalSteps) / float64(sti.Outputs)
		fmt.Printf("%-8d %-10d %-18d %-18.1f\n", n, stg.Outputs, stg.MaxDelaySteps, avg)
	}
	fmt.Println("shape: both stay flat in n — the union is free-connex by extension (Thm 4.13)")
	fmt.Println("even though φ1 alone admits no constant-delay enumeration.")
}

// ---------------------------------------------------------------- E10

func e10() {
	fmt.Println("Theorem 4.15: D ⊨ φ_k iff G has a k-clique (random G, n=9)")
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
	fmt.Printf("%-4s %-12s %-10s %-10s %-12s %-8s\n", "k", "vars(2k²)", "viaACQ<", "brute", "time", "agree")
	kmax := 4
	if *quick {
		kmax = 3
	}
	for k := 2; k <= kmax; k++ {
		t0 := time.Now()
		got, err := ineq.DecideClique(adj, k)
		check(err)
		el := time.Since(t0)
		want := ineq.HasCliqueBrute(adj, k)
		fmt.Printf("%-4d %-12d %-10v %-10v %-12v %-8v\n", k, 2*k*k, got, want,
			el.Round(time.Microsecond), got == want)
	}
	fmt.Println("shape: the query is acyclic yet the time explodes with k — W[1]-hardness of ACQ<.")
}

// ---------------------------------------------------------------- E11

func e11() {
	// Example 4.19 golden artifacts.
	tb := ineq.Table{K: 4, Rows: []database.Tuple{
		{1, 2, 4, 5}, {1, 5, 1, 5}, {3, 2, 4, 5}, {3, 5, 3, 5}, {5, 2, 4, 5}, {2, 2, 4, 5},
	}}
	fmt.Println("Example 4.19 table (rows a..f):")
	fmt.Printf("  minimal covers (%d ≤ k! = 24):", len(tb.MinimalCovers()))
	for _, c := range tb.MinimalCovers() {
		fmt.Printf(" %s", ineq.CoverString(c))
	}
	rep := tb.RepresentativeSet()
	fmt.Printf("\n  representative set size: %d (paper's example: {a,b,c,d})\n", len(rep))
	fmt.Printf("  total covers (exhaustive): %d (the paper's rough count: 64)\n", len(tb.AllCovers()))

	// ACQ≠ constant-delay enumeration sweep.
	fmt.Println("\nACQ≠ Q(x,y) :- A(x,y), B(y,z), x != z  (disequality with a quantified variable)")
	fmt.Printf("%-8s %-10s %-14s %-12s\n", "n", "answers", "avgΔsteps", "prep")
	q := mustCQ("Q(x,y) :- A(x,y), B(y,z), x != z.")
	for _, n := range sizes([]int{2000, 8000, 32000}, []int{500, 2000}) {
		db := database.NewDatabase()
		a := database.NewRelation("A", 2)
		b := database.NewRelation("B", 2)
		for i := 0; i < n; i++ {
			a.InsertValues(database.Value(i), database.Value(i%97))
			b.InsertValues(database.Value(i%97), database.Value((i+1)%31))
		}
		a.Dedup()
		b.Dedup()
		db.AddRelation(a)
		db.AddRelation(b)
		c := newCounter(fmt.Sprintf("neq_n%d", n))
		st, _ := delay.Measure(c, func() delay.Enumerator {
			e, err := ineq.EnumerateNeq(db, q, c)
			check(err)
			return e
		})
		fmt.Printf("%-8d %-10d %-14.1f %-12v\n", n, st.Outputs,
			float64(st.TotalSteps)/float64(st.Outputs), st.PreprocessTime.Round(time.Microsecond))
	}
	fmt.Println("shape: per-answer delay flat in n — free-connexity still captures constant delay")
	fmt.Println("in the presence of disequalities (Thm 4.20), via representative witnesses.")
}

// ---------------------------------------------------------------- E12

func e12() {
	fmt.Println("♯FACQ⁰: weighted counting of the projection-free chain Q(x,y,z) :- R(x,y), S(y,z)")
	fmt.Printf("%-8s %-14s %-14s %-14s %-14s\n", "n", "count", "bigint", "GF(2^61-1)", "rationals")
	rng := rand.New(rand.NewSource(7))
	q := mustCQ("Q(x,y,z) :- R(x,y), S(y,z).")
	for _, n := range sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
		db := database.NewDatabase()
		db.AddRelation(graphs.RandomRelation(rng, "R", 2, n, n/2))
		db.AddRelation(graphs.RandomRelation(rng, "S", 2, n, n/2))
		bi := counting.BigInt{}
		t0 := time.Now()
		cnt, err := counting.CountQuantifierFree(db, q, counting.UnitWeight(bi), bi)
		check(err)
		tBig := time.Since(t0)
		gf := counting.NewGF(1<<61 - 1)
		t0 = time.Now()
		_, err = counting.CountQuantifierFree(db, q, counting.UnitWeight(gf), gf)
		check(err)
		tGF := time.Since(t0)
		ra := counting.Rational{}
		w := func(v database.Value) interface{} { return big.NewRat(1, int64(v%7+1)) }
		t0 = time.Now()
		_, err = counting.CountQuantifierFree(db, q, w, ra)
		check(err)
		tRat := time.Since(t0)
		fmt.Printf("%-8d %-14s %-14v %-14v %-14v\n", n, bi.String(cnt),
			tBig.Round(time.Microsecond), tGF.Round(time.Microsecond), tRat.Round(time.Microsecond))
	}
	fmt.Println("\nperfect matchings via Equation 2 (vs Ryser's permanent):")
	fmt.Printf("%-4s %-12s %-12s %-10s\n", "n", "viaACQ", "permanent", "time")
	rng2 := rand.New(rand.NewSource(8))
	nm := 6
	if *quick {
		nm = 5
	}
	for n := 2; n <= nm; n++ {
		adj := graphs.RandomBipartite(rng2, n, 0.6)
		t0 := time.Now()
		got, err := counting.PerfectMatchingsViaACQ(adj)
		check(err)
		fmt.Printf("%-4d %-12s %-12s %-10v\n", n, got, counting.Permanent(adj), time.Since(t0).Round(time.Microsecond))
	}
}

// ---------------------------------------------------------------- E13

func e13() {
	fmt.Println("star queries ψ_k(x1..xk) = ∃t ⋀ E_i(t,x_i): quantified star size k")
	fmt.Printf("%-4s %-8s %-12s %-14s\n", "k", "n", "starSize", "countTime")
	rng := rand.New(rand.NewSource(9))
	ns := sizes([]int{400}, []int{120})
	n := ns[0]
	for k := 1; k <= 4; k++ {
		q := &logic.CQ{Name: "Psi"}
		for i := 1; i <= k; i++ {
			x := fmt.Sprintf("x%d", i)
			q.Head = append(q.Head, x)
			q.Atoms = append(q.Atoms, logic.NewAtom(fmt.Sprintf("E%d", i), "t", x))
		}
		db := database.NewDatabase()
		for i := 1; i <= k; i++ {
			db.AddRelation(graphs.RandomRelation(rng, fmt.Sprintf("E%d", i), 2, n, n/4))
		}
		t0 := time.Now()
		_, err := counting.Count(db, q, counting.UnitWeight(counting.BigInt{}), counting.BigInt{})
		check(err)
		fmt.Printf("%-4d %-8d %-12d %-14v\n", k, n, q.QuantifiedStarSize(), time.Since(t0).Round(time.Microsecond))
	}
	fmt.Println("shape: time grows roughly like n^k — the (‖D‖+‖φ‖)^O(k) of Theorem 4.28;")
	fmt.Println("unbounded star size makes counting #W[1]-hard.")
}

// ---------------------------------------------------------------- E14

func e14() {
	fmt.Println("β-acyclic CNF (interval scopes): nest-point Davis–Putnam vs DPLL")
	fmt.Printf("%-8s %-10s %-14s %-14s %-8s\n", "vars", "clauses", "nestPointDP", "DPLL", "agree")
	rng := rand.New(rand.NewSource(10))
	for _, n := range sizes([]int{200, 800, 3200}, []int{100, 400}) {
		f := ncq.RandomIntervalCNF(rng, n, 2*n, 6)
		t0 := time.Now()
		got, err := f.SolveBetaAcyclic()
		check(err)
		tDP := time.Since(t0)
		t0 = time.Now()
		want := f.SolveDPLL()
		tDPLL := time.Since(t0)
		fmt.Printf("%-8d %-10d %-14v %-14v %-8v\n", n, len(f.Clauses),
			tDP.Round(time.Microsecond), tDPLL.Round(time.Microsecond), got == want)
	}
	tri := ncq.TriangleCNF()
	_, err := tri.SolveBetaAcyclic()
	fmt.Printf("covered-triangle CNF (α- but not β-acyclic) rejected by the β-solver: %v\n", err != nil)
	fmt.Println("shape: the nest-point elimination is quasi-linear BY CONSTRUCTION — its bound")
	fmt.Println("holds on every β-acyclic instance, while DPLL (fast on these random intervals)")
	fmt.Println("is exponential in the worst case. Theorem 4.31: under Triangle, β-acyclicity")
	fmt.Println("is exactly the quasi-linear frontier for NCQs.")
}

// ---------------------------------------------------------------- E15

func e15() {
	rng := rand.New(rand.NewSource(11))
	fmt.Println("exact #Σ0: count (x,X) with  E(x,y)∧x∈X∧y∉X  over random graphs")
	fmt.Printf("%-8s %-16s %-12s\n", "n", "count", "time")
	f0 := mustFormula("E(x,y) and x in X and not y in X")
	for _, n := range sizes([]int{8, 12, 16}, []int{6, 10}) {
		db := graphs.EdgesToDB(graphs.RandomBoundedDegree(rng, n, 3), n)
		t0 := time.Now()
		cnt, err := prefix.CountSigma0(db, f0)
		check(err)
		fmt.Printf("%-8d %-16s %-12v\n", n, cnt, time.Since(t0).Round(time.Microsecond))
	}

	fmt.Println("\n#Σ1 / #DNF FPRAS (Karp–Luby) vs exact, ε = 0.1:")
	fmt.Printf("%-6s %-10s %-14s %-14s %-10s\n", "vars", "cubes", "exact", "estimate", "relErr")
	for _, nv := range sizes([]int{12, 16, 20}, []int{10, 12}) {
		f := prefix.RandomDNF3(rng, nv, nv)
		cubes := f.Cubes()
		exact := f.CountExact()
		est, err := prefix.KarpLuby(cubes, f.N, 0.1, rng)
		check(err)
		rel := 0.0
		if exact.Sign() > 0 {
			diff := new(big.Int).Sub(est, exact)
			rel = float64(new(big.Int).Abs(diff).Int64()) / float64(exact.Int64())
		}
		fmt.Printf("%-6d %-10d %-14s %-14s %-10.3f\n", nv, len(cubes), exact, est, rel)
	}

	fmt.Println("\nenum·Σ0 with Gray-code delta-constant delay:  V(x) ∧ x∈X")
	db := graphs.EdgesToDB(graphs.Cycle(10), 10)
	e0, err := prefix.EnumerateSigma0(db, mustFormula("V(x) and x in X"), nil)
	check(err)
	answers := prefix.CollectSetAnswers(e0)
	maxDelta := 0
	for _, a := range answers {
		if a.Delta > maxDelta {
			maxDelta = a.Delta
		}
	}
	fmt.Printf("n=10: %d answers, max delta = %d output cells (Thm 5.5: constant)\n", len(answers), maxDelta)

	fmt.Println("\nenum·Σ1 with polynomial delay (flashlight):  ∃x (x∈X ∧ V(x))")
	c := newCounter("sigma1_n8")
	e1s, err := prefix.EnumerateSigma1(graphs.EdgesToDB(graphs.Cycle(8), 8),
		mustFormula("exists x. (x in X and V(x))"), c)
	check(err)
	n1 := len(prefix.CollectSetAnswers(e1s))
	fmt.Printf("n=8: %d answers (= 2^8 − 1 nonempty sets), %d total steps, %.1f steps/answer\n",
		n1, c.Steps(), float64(c.Steps())/float64(n1))
}

// ---------------------------------------------------------------- E16

func e16() {
	fmt.Println("naive FO evaluation of the h-variable clique query (all h-cliques counted,")
	fmt.Println("no existential short-circuit): time ~ n^h")
	fmt.Printf("%-4s %-8s %-10s %-12s\n", "h", "n", "cliques", "time")
	rng := rand.New(rand.NewSource(12))
	for _, h := range []int{2, 3, 4} {
		for _, n := range sizes([]int{30, 60}, []int{15, 30}) {
			db := graphs.EdgesToDB(graphs.RandomBoundedDegree(rng, n, 6), n)
			var parts []string
			var vars []string
			for i := 1; i <= h; i++ {
				vars = append(vars, fmt.Sprintf("x%d", i))
				for j := i + 1; j <= h; j++ {
					parts = append(parts, fmt.Sprintf("(E(x%d,x%d) and not x%d = x%d)", i, j, i, j))
				}
			}
			f := mustFormula(strings.Join(parts, " and "))
			t0 := time.Now()
			res := logic.EvalFO(db, f, vars)
			fmt.Printf("%-4d %-8d %-10d %-12v\n", h, n, len(res), time.Since(t0).Round(time.Microsecond))
		}
	}
	fmt.Println("shape: doubling n multiplies time by ≈ 2^h — the ‖φ‖·‖D‖^h baseline that the")
	fmt.Println("AW[*]-hardness of clique forbids improving to a fixed exponent (Section 3).")
}

// ---------------------------------------------------------------- E17

func e17() {
	fmt.Println("random access into φ(D) for free-connex Q(x,y,z) :- A(x,y), B(y,z):")
	fmt.Println("bind once (linear), one counting pass over the bound spine, then Get(i) in O(‖φ‖·log‖D‖)")
	fmt.Printf("%-8s %-10s %-12s %-12s %-14s %-16s %-18s\n", "n", "answers", "bindTime", "countPass", "avgGet(1k)", "seek+scan64(1k)", "vs skip-enumerate")
	q := mustCQ("Q(x,y,z) :- A(x,y), B(y,z).")
	rng := rand.New(rand.NewSource(13))
	for _, n := range sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
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

		t0 := time.Now()
		core, err := cq.PrepareConstantDelay(db, q, nil)
		check(err)
		bind := time.Since(t0)
		t0 = time.Now()
		w, err := cq.NewSpineWeights(core, nil)
		check(err)
		pass := time.Since(t0)
		ra := core.RandomAccess(w, nil)
		total := int64(w.Total())

		t0 = time.Now()
		for i := 0; i < 1000; i++ {
			_, err := ra.GetInt(rng.Int63n(total))
			check(err)
		}
		avgGet := time.Since(t0) / 1000

		// A page as qservd serves it: one seek, then 64 constant-delay moves.
		od := core.Cursor(nil)
		t0 = time.Now()
		for i := 0; i < 1000; i++ {
			od.Seek(w, uint64(rng.Int63n(total)))
			for k := 0; k < 64; k++ {
				if _, ok := od.Next(); !ok {
					break
				}
			}
		}
		avgPage := time.Since(t0) / 1000

		// Baseline: reach a random middle index by skipping with the
		// constant-delay enumerator.
		target := total / 2
		t0 = time.Now()
		e := core.Cursor(nil)
		for i := int64(0); i <= target; i++ {
			e.Next()
		}
		skip := time.Since(t0)
		fmt.Printf("%-8d %-10d %-12v %-12v %-14v %-16v %-18v\n", n, total, bind.Round(time.Microsecond),
			pass.Round(time.Microsecond), avgGet, avgPage, skip.Round(time.Microsecond))
	}
	fmt.Println("shape: Get and seek+scan stay ~flat (log factor) while skip-enumeration to index n/2")
	fmt.Println("grows linearly — the random-access/random-order regime of [23]; a 64-answer page costs")
	fmt.Println("about one Get plus 64 constant-delay moves, not 64 Gets.")
}

// ---------------------------------------------------------------- E18

// treeInstance builds a complete-binary-tree query of the given depth —
// E1(x1,x2), E2(x1,x3), E3(x2,x4), … — with head {x1}, over random binary
// relations of relSize tuples each. Sibling subtrees of its join tree are
// independent, which is exactly the parallelism the Par* engine exploits.
func treeInstance(rng *rand.Rand, depth, relSize int) (*logic.CQ, *database.Database) {
	q := &logic.CQ{Name: "T", Head: []string{"x1"}}
	db := database.NewDatabase()
	nodes := 1<<depth - 1
	for child := 2; child <= nodes; child++ {
		parent := child / 2
		name := fmt.Sprintf("E%d", child-1)
		q.Atoms = append(q.Atoms, logic.NewAtom(name,
			fmt.Sprintf("x%d", parent), fmt.Sprintf("x%d", child)))
		db.AddRelation(graphs.RandomRelation(rng, name, 2, relSize, relSize/2))
	}
	return q, db
}

func e18() {
	workers := cq.Parallelism(*parallel)
	fmt.Printf("binary-tree query, 14 atoms; sequential Eval vs ParEval with %d workers (-parallel)\n", workers)
	fmt.Printf("%-8s %-10s %-12s %-12s %-9s %-12s %-12s %-10s\n",
		"n", "answers", "seqTime", "parTime", "speedup", "seqSteps", "parSteps", "stepRatio")
	rng := rand.New(rand.NewSource(18))
	for _, n := range sizes([]int{1 << 14, 1 << 16, 1 << 17}, []int{1 << 12, 1 << 14}) {
		q, db := treeInstance(rng, 4, n)
		cs := newCounter(fmt.Sprintf("seq_n%d", n))
		t0 := time.Now()
		res, err := cq.EvalCounted(db, q, cs)
		check(err)
		seq := time.Since(t0)
		cp := newCounter(fmt.Sprintf("par_n%d", n))
		t0 = time.Now()
		resP, err := cq.ParEval(db, q, *parallel, cp)
		check(err)
		par := time.Since(t0)
		if len(resP) != len(res) {
			log.Fatalf("E18: parallel engine disagrees: %d vs %d answers", len(resP), len(res))
		}
		fmt.Printf("%-8d %-10d %-12v %-12v %-9.2f %-12d %-12d %-10.3f\n",
			n, len(res), seq.Round(time.Microsecond), par.Round(time.Microsecond),
			float64(seq)/float64(par), cs.Steps(), cp.Steps(),
			float64(cp.Steps())/float64(cs.Steps()))
		record(fmt.Sprintf("n%d_seq_ns", n), seq.Nanoseconds())
		record(fmt.Sprintf("n%d_par_ns", n), par.Nanoseconds())
		record(fmt.Sprintf("n%d_seq_steps", n), cs.Steps())
		record(fmt.Sprintf("n%d_par_steps", n), cp.Steps())
	}
	fmt.Println("shape: speedup tracks the worker count while stepRatio stays 1.000 —")
	fmt.Println("parallelism changes wall time, never the counted O(‖φ‖·‖D‖·‖φ(D)‖) work.")
}

// ---------------------------------------------------------------- E19

func e19() {
	reps := *repeat
	if reps < 1 {
		reps = 1
	}
	fmt.Printf("free-connex Q(x,y) :- A(x,y), B(y,z): %d enumerations, one-shot vs plan cache\n", reps)
	fmt.Printf("(one-shot pays classification + join tree + semijoin reduction + index build on\n")
	fmt.Printf("every run; the cached plan pays them once in Bind and then only walks cursors)\n")
	fmt.Printf("%-8s %-10s %-14s %-14s %-9s %-14s\n",
		"n", "answers", "oneshot(all)", "cached(all)", "speedup", "warmExec(avg)")
	q := mustCQ("Q(x,y) :- A(x,y), B(y,z).")
	cache := plan.NewCache()
	for _, n := range sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
		db := database.NewDatabase()
		a := database.NewRelation("A", 2)
		b := database.NewRelation("B", 2)
		for i := 0; i < n; i++ {
			a.InsertValues(database.Value(i), database.Value(i%199))
			b.InsertValues(database.Value(i%199), database.Value(i%61))
		}
		a.Dedup()
		b.Dedup()
		db.AddRelation(a)
		db.AddRelation(b)

		// One-shot: every iteration re-runs the full Compile → Bind →
		// Execute chain, like the historical core.Enumerate facade.
		co := newCounter(fmt.Sprintf("oneshot_n%d", n))
		t0 := time.Now()
		var answers int
		for i := 0; i < reps; i++ {
			e, err := core.Enumerate(db, q, co)
			check(err)
			answers = drainEnum(e, co)
		}
		oneshot := time.Since(t0)

		// Cached: the first Prepare compiles and binds; every further
		// iteration is a warm probe plus a fresh cursor over the bound spine.
		cw := newCounter(fmt.Sprintf("cached_n%d", n))
		t0 = time.Now()
		var warmAnswers int
		for i := 0; i < reps; i++ {
			p, err := cache.Compile(q)
			check(err)
			pr, err := cache.PreparePlan(p, db, cw)
			check(err)
			e, err := pr.Enumerate(cw)
			check(err)
			warmAnswers = drainEnum(e, cw)
		}
		cached := time.Since(t0)
		if warmAnswers != answers {
			log.Fatalf("E19: cached plan disagrees: %d vs %d answers", warmAnswers, answers)
		}

		// Average wall time of one warm execution, measured separately so the
		// cold Bind in the loop above does not pollute the number.
		t0 = time.Now()
		warmRuns := 16
		for i := 0; i < warmRuns; i++ {
			pr, err := cache.Prepare(q, db)
			check(err)
			e, err := pr.Enumerate(nil)
			check(err)
			drainEnum(e, nil)
		}
		warmExec := time.Since(t0) / time.Duration(warmRuns)

		fmt.Printf("%-8d %-10d %-14v %-14v %-9.2f %-14v\n", n, answers,
			oneshot.Round(time.Microsecond), cached.Round(time.Microsecond),
			float64(oneshot)/float64(cached), warmExec.Round(time.Microsecond))
		record(fmt.Sprintf("n%d_oneshot_ns", n), oneshot.Nanoseconds())
		record(fmt.Sprintf("n%d_cached_ns", n), cached.Nanoseconds())
		record(fmt.Sprintf("n%d_warm_exec_ns", n), warmExec.Nanoseconds())
	}
	hits, misses := cache.Stats()
	fmt.Printf("plan cache: %d hits, %d misses (one cold bind per database)\n", hits, misses)
	record("cache_hits", hits)
	record("cache_misses", misses)
	fmt.Println("shape: speedup approaches the preprocess/execute time ratio as N grows — the")
	fmt.Println("bind work (join tree, reduction, indexes) is amortized across executions while")
	fmt.Println("each execution keeps the engine's delay guarantee.")
}

// ---------------------------------------------------------------- E20

func e20() {
	fmt.Println("free-connex Q(x,y) :- A(x,y), B(y,z): single-tuple inserts and deletes against")
	fmt.Println("a warm statement — Refresh patches the bound spine (reduced sets, row buckets,")
	fmt.Println("slabs) in place; the cliff re-runs the full Bind preprocessing per update.")
	fmt.Printf("%-8s %-10s %-9s %-14s %-14s %-9s %-10s\n",
		"n", "answers", "updates", "refresh(avg)", "rebind(avg)", "cliff", "maxDelay")
	q := mustCQ("Q(x,y) :- A(x,y), B(y,z).")
	p, err := plan.Compile(q)
	check(err)
	for _, n := range sizes([]int{1 << 14, 1 << 17}, []int{1 << 10, 1 << 12}) {
		db := database.NewDatabase()
		a := database.NewRelation("A", 2)
		b := database.NewRelation("B", 2)
		for i := 0; i < n; i++ {
			a.InsertValues(database.Value(i), database.Value(i%199))
			b.InsertValues(database.Value(i%199), database.Value(i%61))
		}
		a.Dedup()
		b.Dedup()
		db.AddRelation(a)
		db.AddRelation(b)

		pr, err := p.Bind(db)
		check(err)
		// The first refresh after a mutation is the in-place rebuild that
		// installs the incremental refreshers; pay it before timing the
		// steady state.
		a.Insert(database.Tuple{database.Value(n), 0})
		if _, err := pr.Refresh(nil); err != nil {
			check(err)
		}

		// Steady state: alternate a fresh insert with the delete of the
		// previous one, refreshing the warm statement after each mutation.
		updates := 256
		if *quick {
			updates = 64
		}
		var refreshTotal time.Duration
		for i := 0; i < updates; i++ {
			tp := database.Tuple{database.Value(n + 1 + i/2), database.Value(i % 199)}
			if i%2 == 0 {
				a.Insert(tp)
			} else {
				a.Delete(database.Tuple{database.Value(n + 1 + (i-1)/2), database.Value((i - 1) % 199)})
			}
			t0 := time.Now()
			kind, err := pr.Refresh(nil)
			refreshTotal += time.Since(t0)
			check(err)
			if kind != plan.RefreshDelta {
				log.Fatalf("E20: update %d fell off the delta path (%v)", i, kind)
			}
		}
		refresh := refreshTotal / time.Duration(updates)

		// The cliff: the same kind of mutation, but the statement is caught
		// up with a full Bind (join tree, semijoin reduction, index builds).
		// Only the Bind is timed, as only the Refresh was above.
		rebinds := 32
		if *quick {
			rebinds = 8
		}
		var rebindTotal time.Duration
		for i := 0; i < rebinds; i++ {
			a.Insert(database.Tuple{database.Value(2*n + i), database.Value(i % 199)})
			t0 := time.Now()
			cold, err := p.Bind(db)
			rebindTotal += time.Since(t0)
			check(err)
			if cold.Stale() {
				log.Fatal("E20: fresh bind is already stale")
			}
		}
		rebind := rebindTotal / time.Duration(rebinds)
		if _, err := pr.Refresh(nil); err != nil {
			check(err)
		}

		// Per-output delay through the refreshed spine vs a fresh bind over
		// the same final database: the delta patches may not degrade the
		// constant-delay guarantee of the enumeration phase.
		cr := newCounter(fmt.Sprintf("refreshed_n%d", n))
		stRef, outRef := delay.Measure(cr, func() delay.Enumerator {
			e, err := pr.Enumerate(cr)
			check(err)
			return e
		})
		fresh, err := p.Bind(db)
		check(err)
		cf := newCounter(fmt.Sprintf("fresh_n%d", n))
		stFresh, outFresh := delay.Measure(cf, func() delay.Enumerator {
			e, err := fresh.Enumerate(cf)
			check(err)
			return e
		})
		if len(outRef) != len(outFresh) {
			log.Fatalf("E20: refreshed statement has %d answers, fresh bind %d", len(outRef), len(outFresh))
		}
		if stRef.MaxDelaySteps != stFresh.MaxDelaySteps {
			log.Fatalf("E20: per-output delay changed after refresh: %d steps vs fresh %d",
				stRef.MaxDelaySteps, stFresh.MaxDelaySteps)
		}

		fmt.Printf("%-8d %-10d %-9d %-14v %-14v %-9.1f %-10d\n", n, len(outRef), updates,
			refresh.Round(time.Nanosecond), rebind.Round(time.Microsecond),
			float64(rebind)/float64(refresh), stRef.MaxDelaySteps)
		record(fmt.Sprintf("n%d_refresh_ns", n), refresh.Nanoseconds())
		record(fmt.Sprintf("n%d_rebind_ns", n), rebind.Nanoseconds())
		record(fmt.Sprintf("n%d_cliff_ratio", n), float64(rebind)/float64(refresh))
		record(fmt.Sprintf("n%d_max_delay_steps", n), stRef.MaxDelaySteps)
	}
	fmt.Println("shape: refresh(avg) stays in the microseconds while rebind(avg) grows linearly")
	fmt.Println("with n, so the cliff ratio widens with the database; maxDelay certifies the")
	fmt.Println("refreshed spine enumerates with the same per-output step bound as a fresh bind.")
}

// ---------------------------------------------------------------- E22

// e22Shape is one relation pair for the scalar-vs-batched kernel sweep,
// reusing the key distributions of earlier experiments: the E5 chain
// (tiny shared domain, long equal-key runs), the E12 random instance
// (domain n/2, near-unique keys), and the E18 tree-edge relations
// (random binary relations at the parallel engine's operating point).
type e22Shape struct {
	name         string
	r, s         *database.Relation
	rCols, sCols []int
}

func e22Shapes(n int) []e22Shape {
	rng := rand.New(rand.NewSource(22))
	a := database.NewRelation("A", 2)
	b := database.NewRelation("B", 2)
	for i := 0; i < n; i++ {
		a.InsertValues(database.Value(i), database.Value(i%199))
		b.InsertValues(database.Value(i%199), database.Value(i%61))
	}
	a.Dedup()
	b.Dedup()
	return []e22Shape{
		{"E5_chain", a, b, []int{1}, []int{0}},
		{"E12_random", graphs.RandomRelation(rng, "R", 2, n, n/2),
			graphs.RandomRelation(rng, "S", 2, n, n/2), []int{1}, []int{0}},
		{"E18_tree", graphs.RandomRelation(rng, "E1", 2, n, n/2),
			graphs.RandomRelation(rng, "E2", 2, n, n/2), []int{0}, []int{0}},
	}
}

// e22Sink keeps each timed kernel result observably live, then is dropped
// before the inter-rep GC so no rep marks a predecessor's output.
var e22Sink *database.Relation

// e22Time reports the average wall time of f over reps warm runs. One
// untimed call first puts index and flat-table builds outside the
// measurement (steady state is what the batch kernels optimize); a forced
// collection before each rep means every kernel pays for exactly its own
// garbage — the join outputs here reach tens of millions of tuples, and
// without the barrier whichever kernel runs second absorbs the other's
// GC debt.
func e22Time(reps int, f func() *database.Relation) time.Duration {
	e22Sink = f()
	e22Sink = nil
	var total time.Duration
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		e22Sink = f()
		total += time.Since(t0)
		e22Sink = nil
	}
	return total / time.Duration(reps)
}

func e22() {
	reps := 10
	n := 1 << 16
	if *quick {
		reps, n = 3, 1<<12
	}
	fmt.Printf("warm semijoin/join kernels, n=%d tuples per relation, avg of %d runs\n", n, reps)
	fmt.Printf("%-12s %-10s %-14s %-14s %-9s %-14s %-14s %-9s\n",
		"shape", "survivors", "sjScalar", "sjBatch", "speedup", "joinScalar", "joinBatch", "speedup")
	for _, sh := range e22Shapes(n) {
		// Correctness first (tuple-for-tuple, in order), with the results
		// dead before any timing starts.
		survivors := func() int {
			scalar := database.SemijoinScalar(sh.r, sh.rCols, sh.s, sh.sCols)
			batch := database.Semijoin(sh.r, sh.rCols, sh.s, sh.sCols)
			if batch.Len() != scalar.Len() {
				log.Fatalf("E22 %s: batched semijoin %d tuples, scalar %d", sh.name, batch.Len(), scalar.Len())
			}
			for i, tu := range scalar.Tuples {
				if !tu.Equal(batch.Tuples[i]) {
					log.Fatalf("E22 %s: batched semijoin diverges from scalar at tuple %d", sh.name, i)
				}
			}
			jScalar := database.JoinScalar("J", sh.r, sh.rCols, sh.s, sh.sCols)
			jBatch := database.Join("J", sh.r, sh.rCols, sh.s, sh.sCols)
			if jBatch.Len() != jScalar.Len() {
				log.Fatalf("E22 %s: batched join %d tuples, scalar %d", sh.name, jBatch.Len(), jScalar.Len())
			}
			return batch.Len()
		}()
		tScalar := e22Time(reps, func() *database.Relation { return database.SemijoinScalar(sh.r, sh.rCols, sh.s, sh.sCols) })
		tBatch := e22Time(reps, func() *database.Relation { return database.Semijoin(sh.r, sh.rCols, sh.s, sh.sCols) })
		tJScalar := e22Time(reps, func() *database.Relation { return database.JoinScalar("J", sh.r, sh.rCols, sh.s, sh.sCols) })
		tJBatch := e22Time(reps, func() *database.Relation { return database.Join("J", sh.r, sh.rCols, sh.s, sh.sCols) })
		sjSpeed := float64(tScalar) / float64(tBatch)
		jSpeed := float64(tJScalar) / float64(tJBatch)
		fmt.Printf("%-12s %-10d %-14v %-14v %-9.2f %-14v %-14v %-9.2f\n",
			sh.name, survivors, tScalar.Round(time.Microsecond), tBatch.Round(time.Microsecond), sjSpeed,
			tJScalar.Round(time.Microsecond), tJBatch.Round(time.Microsecond), jSpeed)
		record(sh.name+"_semijoin_scalar_ns", tScalar.Nanoseconds())
		record(sh.name+"_semijoin_batch_ns", tBatch.Nanoseconds())
		record(sh.name+"_semijoin_speedup", sjSpeed)
		record(sh.name+"_join_scalar_ns", tJScalar.Nanoseconds())
		record(sh.name+"_join_batch_ns", tJBatch.Nanoseconds())
		record(sh.name+"_join_speedup", jSpeed)
	}

	// Full-engine step identity: the E18 tree query through the whole
	// Yannakakis pipeline must count the same steps with the batch kernels
	// off and on — vectorization changes wall time, never the counted work.
	depth, relSize := 4, n/4
	rng := rand.New(rand.NewSource(23))
	q, db := treeInstance(rng, depth, relSize)
	database.SetBatchKernels(false)
	cOff := newCounter("engine_scalar")
	t0 := time.Now()
	resOff, err := cq.EvalCounted(db, q, cOff)
	check(err)
	wallOff := time.Since(t0)
	database.SetBatchKernels(true)
	cOn := newCounter("engine_batch")
	t0 = time.Now()
	resOn, err := cq.EvalCounted(db, q, cOn)
	check(err)
	wallOn := time.Since(t0)
	if len(resOff) != len(resOn) {
		log.Fatalf("E22: engine answers differ with batch kernels off/on: %d vs %d", len(resOff), len(resOn))
	}
	if cOff.Steps() != cOn.Steps() {
		log.Fatalf("E22: counted steps differ with batch kernels off/on: %d vs %d", cOff.Steps(), cOn.Steps())
	}
	fmt.Printf("\nfull engine (E18 tree, depth %d, relSize %d): %d answers, %d steps either way;\n",
		depth, relSize, len(resOn), cOn.Steps())
	fmt.Printf("scalar %v vs batched %v (%.2fx)\n",
		wallOff.Round(time.Microsecond), wallOn.Round(time.Microsecond), float64(wallOff)/float64(wallOn))
	record("engine_scalar_ns", wallOff.Nanoseconds())
	record("engine_batch_ns", wallOn.Nanoseconds())
	record("engine_steps", cOn.Steps())
	fmt.Println("shape: batched kernels win where probes dominate (hash staging, flat tables,")
	fmt.Println("inline keys, branch-free compaction); counted steps are bit-identical, so the")
	fmt.Println("complexity accounting of E4/E5/E18 is untouched by vectorization.")
}

// drainEnum exhausts e, returning the number of answers; with a counter the
// outputs are marked so delay histograms stay meaningful under -trace.
func drainEnum(e delay.Enumerator, c *delay.Counter) int {
	n := 0
	for {
		_, ok := e.Next()
		if c != nil {
			c.MarkOutput()
		}
		if !ok {
			return n
		}
		n++
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

var _ = os.Exit

// mustCQ and mustFormula parse the benchmark's fixed query strings,
// aborting the run on error (a typo in a benchmark query is a programming
// mistake, not a user-input condition).
func mustCQ(src string) *logic.CQ {
	q, err := logic.ParseCQ(src)
	if err != nil {
		log.Fatalf("qbench: bad query %q: %v", src, err)
	}
	return q
}

func mustFormula(src string) logic.Formula {
	f, err := logic.ParseFormula(src)
	if err != nil {
		log.Fatalf("qbench: bad formula %q: %v", src, err)
	}
	return f
}
