// Package plan implements the Compile → Bind → Execute query pipeline,
// which makes the paper's split of preprocessing from answering an API.
//
//   - Compile(q) classifies the query along the paper's dichotomies and
//     picks its engine route, a row of the route table: the engine of each
//     task. The Plan is immutable and pure of data.
//   - Plan.Bind(db) runs the route's data-dependent preprocessing (semijoin
//     reduction, index builds, witness sets) and returns a Prepared that
//     holds the route's bound state, one type per route in its own file.
//     Executing it after the database mutated fails with ErrStalePlan;
//     Refresh catches it up.
//   - Prepared runs Decide, Count, Enumerate (EnumerateFrom resumes at the
//     position a pass handed out) and NewRandomAccess on the bound state,
//     so repeated executions pay only the per-answer work.
//
// Cache keys Plans by an allocation-free structural fingerprint and
// Prepareds by (plan, database, generation). The classifier (Report,
// Analyze) lives here so that compilation and classification are one step.
package plan

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/hypergraph"
	"repro/internal/logic"
	"repro/internal/ucq"
)

// Report is the tractability classification of a conjunctive query.
type Report struct {
	Query        *logic.CQ `json:"-"`
	Arity        int       `json:"arity"`
	SelfJoinFree bool      `json:"self_join_free"`
	HasNegation  bool      `json:"has_negation"`
	HasOrder     bool      `json:"has_order"` // <, ≤ comparisons
	HasDiseq     bool      `json:"has_diseq"` // ≠ comparisons

	Acyclic     bool `json:"acyclic"`
	FreeConnex  bool `json:"free_connex"`
	StarSize    int  `json:"star_size"` // quantified star size (acyclic queries only)
	BetaAcyclic bool `json:"beta_acyclic"`

	DecisionVerdict    string `json:"decision_verdict"`
	CountingVerdict    string `json:"counting_verdict"`
	EnumerationVerdict string `json:"enumeration_verdict"`

	route *routeRow // the route Compile runs, picked with the verdicts
}

// Analyze classifies q along the paper's dichotomies.
func Analyze(q *logic.CQ) *Report {
	r := &Report{
		Query:        q,
		Arity:        len(q.Head),
		SelfJoinFree: q.IsSelfJoinFree(),
		HasNegation:  len(q.NegAtoms) > 0,
	}
	hasEq := false
	for _, c := range q.Comparisons {
		switch c.Op {
		case logic.LT, logic.LE:
			r.HasOrder = true
		case logic.NEQ:
			r.HasDiseq = true
		case logic.EQ:
			hasEq = true
		}
	}
	h := q.Hypergraph()
	r.Acyclic = hypergraph.IsAcyclic(h)
	r.BetaAcyclic = hypergraph.IsBetaAcyclic(h)
	if r.Acyclic {
		r.FreeConnex = hypergraph.FreeConnex(h, q.Head)
		r.StarSize = hypergraph.QuantifiedStarSize(h, q.Head)
	}
	r.fillVerdicts(hasEq)
	return r
}

// fillVerdicts picks the query's route, the row of the route table that
// Compile runs, and states each task's verdict: the theorem that
// classifies the task and, wherever the route does not run the algorithm
// that theorem names, the engine it does run (used).
func (r *Report) fillVerdicts(hasEq bool) {
	var decide, count, enumerate string
	switch {
	case r.HasNegation && len(r.Query.Atoms) == 0:
		r.route = &routes[routeNCQ]
		decide = "no quasi-linear algorithm expected (not β-acyclic, Theorem 4.31 under Triangle)"
		if r.BetaAcyclic {
			decide = "quasi-linear (β-acyclic NCQ, Theorem 4.31)"
		}
		count, enumerate = "not covered (negative queries: see #SAT literature, Section 4.5)", decide
	case r.HasNegation:
		r.route = &routes[routeBacktrack]
		decide = "signed query: only partial characterizations known ([18], Section 4.5)"
		count, enumerate = decide, decide
	case r.HasOrder:
		r.route = &routes[routeBacktrack]
		decide = "W[1]-complete in general (ACQ<, Theorem 4.15)"
		count, enumerate = decide, decide
	case !r.Acyclic:
		r.route = &routes[routeBacktrack]
		decide, count = "cyclic: NP-complete combined complexity (Chandra–Merlin)", "cyclic: ♯P-hard in general"
		enumerate = "cyclic (self-joins: classification open)"
		if r.SelfJoinFree {
			enumerate = "no Constant-Delay_lin expected (Theorem 4.9 under Hyperclique)"
		}
	default:
		// Acyclic; any comparisons are = or ≠. With comparisons, deciding
		// backtracks and counting runs inclusion–exclusion over them;
		// enumeration keeps the witness-set enumerator for a free-connex
		// query whose comparisons are all ≠ and backtracks otherwise.
		cmp := r.HasDiseq || hasEq
		switch {
		case r.HasDiseq && !hasEq && r.FreeConnex:
			r.route = &routes[routeNeq]
		case cmp:
			r.route = &routes[routeNeqCount]
		case r.FreeConnex:
			r.route = &routes[routeConstant]
		default:
			r.route = &routes[routeLinear]
		}
		via := " via star-size algorithm"
		decide = "O(‖φ‖·‖D‖) semijoin pass (Yannakakis, Theorem 4.2)"
		if cmp {
			decide, via = "O(‖φ‖·‖D‖) for the comparison-free part (Theorem 4.2)", ""
		}
		if r.StarSize == 1 {
			count = "polynomial" + via + ", k = 1 (free-connex, Theorem 4.28)"
		} else {
			count = fmt.Sprintf("(‖D‖+‖φ‖)^O(k)%s, k = %d (Theorem 4.28)", via, r.StarSize)
		}
		switch {
		case r.FreeConnex:
			enumerate = "Constant-Delay_lin (free-connex, Theorem 4.6)"
		case r.SelfJoinFree:
			enumerate = "linear delay (Theorem 4.3); constant delay impossible under Mat-Mul (Theorem 4.8)"
		default:
			enumerate = "linear delay (Theorem 4.3); not free-connex (self-joins: classification open)"
		}
		if r.HasDiseq {
			enumerate += " with disequalities (Theorem 4.20)"
		}
	}
	r.DecisionVerdict = decide + r.used(r.route.decide)
	r.CountingVerdict = count + r.used(r.route.count)
	r.EnumerationVerdict = enumerate + r.used(r.route.enumerate)
}

// used is the fragment by which a verdict names engine e, empty for the
// engines that run the algorithm of the verdict's theorem.
func (r *Report) used(e Engine) string {
	switch e {
	case EngineBacktrack:
		return "; generic backtracking used"
	case EngineNeqCount:
		return "; inclusion–exclusion over the comparisons used"
	case EngineNCQ:
		if r.BetaAcyclic {
			return "; NCQ solver used (nest-point elimination)"
		}
		return "; NCQ solver used (exhaustive search)"
	}
	return ""
}

// String renders the report as an aligned block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:          %s\n", r.Query)
	fmt.Fprintf(&b, "arity:          %d\n", r.Arity)
	fmt.Fprintf(&b, "self-join free: %v\n", r.SelfJoinFree)
	fmt.Fprintf(&b, "acyclic:        %v\n", r.Acyclic)
	if r.Acyclic {
		fmt.Fprintf(&b, "free-connex:    %v\n", r.FreeConnex)
		fmt.Fprintf(&b, "star size:      %d\n", r.StarSize)
	}
	fmt.Fprintf(&b, "β-acyclic:      %v\n", r.BetaAcyclic)
	fmt.Fprintf(&b, "decide:         %s\n", r.DecisionVerdict)
	fmt.Fprintf(&b, "count:          %s\n", r.CountingVerdict)
	fmt.Fprintf(&b, "enumerate:      %s\n", r.EnumerationVerdict)
	return b.String()
}

// Engine names the algorithm a compiled plan selected for a task. The
// values are stable strings, reported as-is by qeval -task analyze
// -format json.
type Engine string

const (
	// Decision engines.
	EngineYannakakis        Engine = "yannakakis-semijoin" // bottom-up semijoin pass (Theorem 4.2)
	EngineNCQ               Engine = "ncq-csp"             // β-acyclic negative CQ via CSP (Theorem 4.31)
	EngineUnionShortCircuit Engine = "union-short-circuit" // disjunct-wise decide, stop at the first ⊤

	// Counting engines.
	EngineStarSizeCount      Engine = "starsize-dp"         // counting DP over the join tree (Theorem 4.28)
	EngineNeqCount           Engine = "neq-count"           // inclusion–exclusion over disequalities
	EngineInclusionExclusion Engine = "inclusion-exclusion" // UCQ counting over disjunct intersections

	// Enumeration engines.
	EngineConstantDelay    Engine = "constant-delay"     // free-connex odometer (Theorem 4.6)
	EngineLinearDelay      Engine = "linear-delay"       // head-binding enumeration (Theorem 4.3)
	EngineNeqEnum          Engine = "neq-constant-delay" // witness-set ACQ≠ enumerator (Theorem 4.20)
	EngineUnionExtension   Engine = "union-extension"    // free-connex UCQ enumerator (Theorem 4.13)
	EngineUnionMaterialize Engine = "union-materialize"  // per-disjunct materialization + dedup

	// Generic fallback, valid for every task.
	EngineBacktrack Engine = "backtrack"
)

// Plan is an immutable compiled query: the classification report, the
// engine chosen for each task, and (for acyclic queries) the join tree.
// A Plan holds no database state — Bind attaches one.
type Plan struct {
	// Exactly one of CQ, UCQ is non-nil.
	CQ  *logic.CQ
	UCQ *logic.UCQ

	Report *Report // the classification of CQ; nil for unions (see Disjuncts)

	DecideEngine    Engine
	CountEngine     Engine
	EnumerateEngine Engine

	// JoinTree is the GYO join tree of the comparison-free part of a CQ
	// without negation, when that part is acyclic.
	JoinTree *hypergraph.JoinTree

	// Disjuncts holds the compiled per-disjunct plans of a union.
	Disjuncts []*Plan

	fp      uint64
	route   *routeRow // the row of the route table Bind builds
	boolQ   *logic.CQ // head-stripped query, for the decision engines
	boolDjs []*Plan   // compiled head-stripped disjuncts, for union decide
	unionOK bool      // the union admits free-connex union extensions
}

// Fingerprint is the structural 64-bit fingerprint of the compiled query,
// the plan cache key.
func (p *Plan) Fingerprint() uint64 { return p.fp }

// A routeRow is one engine route with one engine triple: the engine each
// task runs, the PosLen rule (headPos: a position is the last answer, 8
// bytes per head variable, else one 8-byte value), and the constructor of
// its bound state, which has a file of its own.
type routeRow struct {
	decide, count, enumerate Engine
	headPos                  bool
	bind                     func(p *Plan, db *database.Database, c *delay.Counter) *Prepared
}

const (
	routeConstant = iota
	routeLinear
	routeNeq
	routeNeqCount
	routeBacktrack
	routeNCQ
	routeUnion
)

// routes is the route table. Analyze picks a query's row with its verdicts
// and Compile copies its engines; a union without union extensions
// materializes instead (CompileUCQ).
var routes = [...]routeRow{
	routeConstant:  {EngineYannakakis, EngineStarSizeCount, EngineConstantDelay, false, bindConstant},
	routeLinear:    {EngineYannakakis, EngineStarSizeCount, EngineLinearDelay, true, bindLinear},
	routeNeq:       {EngineBacktrack, EngineNeqCount, EngineNeqEnum, false, bindNeq},
	routeNeqCount:  {EngineBacktrack, EngineNeqCount, EngineBacktrack, false, bindBacktrack},
	routeBacktrack: {EngineBacktrack, EngineBacktrack, EngineBacktrack, false, bindBacktrack},
	routeNCQ:       {EngineNCQ, EngineBacktrack, EngineBacktrack, false, bindBacktrack},
	routeUnion:     {EngineUnionShortCircuit, EngineInclusionExclusion, EngineUnionExtension, false, bindUnion},
}

// Compile classifies q and fixes the engine for each task. The result is
// immutable and independent of any database: compile once, Bind per
// database (and per mutation), execute any number of times.
func Compile(q *logic.CQ) (*Plan, error) {
	if q == nil {
		return nil, errors.New("plan: nil query")
	}
	rep := Analyze(q)
	rt := rep.route
	p := &Plan{CQ: q, Report: rep, DecideEngine: rt.decide, CountEngine: rt.count, EnumerateEngine: rt.enumerate, fp: FingerprintCQ(q), route: rt}
	p.boolQ = &logic.CQ{Name: q.Name, Atoms: q.Atoms, NegAtoms: q.NegAtoms, Comparisons: q.Comparisons}
	// Without negated atoms the query's hypergraph is that of its
	// comparison-free part.
	if rep.Acyclic && !rep.HasNegation {
		if jt, ok := hypergraph.GYO(q.Hypergraph()); ok {
			p.JoinTree = jt
		}
	}
	return p, nil
}

// CompileUCQ compiles a union of conjunctive queries: each disjunct is
// compiled on its own, and the union-extension analysis of Theorem 4.13
// (pure of data) decides at compile time whether the union enumerates with
// constant delay or falls back to materialization.
func CompileUCQ(u *logic.UCQ) (*Plan, error) {
	if u == nil {
		return nil, errors.New("plan: nil union")
	}
	if len(u.Disjuncts) == 0 {
		return nil, errors.New("plan: union has no disjuncts")
	}
	rt := &routes[routeUnion]
	p := &Plan{UCQ: u, DecideEngine: rt.decide, CountEngine: rt.count, EnumerateEngine: rt.enumerate, fp: FingerprintUCQ(u), route: rt}
	for _, d := range u.Disjuncts {
		dp, err := Compile(d)
		if err != nil {
			return nil, err
		}
		p.Disjuncts = append(p.Disjuncts, dp)
		bp, err := Compile(&logic.CQ{Name: d.Name, Atoms: d.Atoms, NegAtoms: d.NegAtoms, Comparisons: d.Comparisons})
		if err != nil {
			return nil, err
		}
		p.boolDjs = append(p.boolDjs, bp)
	}
	if _, err := ucq.Analyze(u, unionMaxExtra); err == nil {
		p.unionOK = true
	} else {
		p.EnumerateEngine = EngineUnionMaterialize
	}
	return p, nil
}

// unionMaxExtra bounds the number of fresh atoms tried per disjunct in the
// union-extension search.
const unionMaxExtra = 2
