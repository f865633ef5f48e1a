// Package plan implements the Compile → Bind → Execute query pipeline.
//
// Every theorem reproduced by this library separates preprocessing from
// answering: linear preprocessing then constant delay for free-connex
// acyclic queries (Theorem 4.6), the one-pass table build of the counting
// DP (Theorem 4.28), the witness-set construction for ACQ≠
// (Theorem 4.20). The pipeline makes that split an API:
//
//   - Compile(q) classifies the query along the paper's dichotomies and
//     fixes the engine for each task. The resulting Plan is immutable and
//     pure of data — it can be computed once and shared freely.
//   - Plan.Bind(db) runs the data-dependent preprocessing (semijoin
//     reduction, hash index builds, witness maps) and returns a Prepared
//     handle. Binding snapshots the database generation; executing a
//     Prepared after the database mutated fails with ErrStalePlan.
//   - Prepared exposes the unified execution API — Decide, Count,
//     Enumerate (EnumerateFrom resumes after the route-native position a
//     pass handed out), NewRandomAccess — each call reusing the bound
//     preprocessing, so repeated executions pay only the per-answer work.
//
// Cache keys Plans by an allocation-free structural fingerprint and
// Prepareds by (plan, database, generation), so a serving loop gets
// amortized preprocessing without bookkeeping.
//
// The classifier (Report, Analyze) lives here so that compilation and
// classification are one step.
package plan

import (
	"errors"
	"fmt"
	"strings"

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

// Verdict fragments. A verdict states the theorem that classifies the query
// and, wherever Compile does not route to the algorithm that theorem names,
// ends with the engine it does route to.
const (
	backtracking  = "; generic backtracking used"
	disequalities = " with disequalities (Theorem 4.20)"
	betaNCQ       = "quasi-linear (β-acyclic NCQ, Theorem 4.31)"
	cyclicNCQ     = "no quasi-linear algorithm expected (not β-acyclic, Theorem 4.31 under Triangle)"
)

// fillVerdicts mirrors Compile's routing branch by branch.
func (r *Report) fillVerdicts(hasEq bool) {
	switch {
	case r.HasNegation && len(r.Query.Atoms) == 0:
		if r.BetaAcyclic {
			r.DecisionVerdict = betaNCQ + "; NCQ solver used (nest-point elimination)"
			r.EnumerationVerdict = betaNCQ + backtracking
		} else {
			r.DecisionVerdict = cyclicNCQ + "; NCQ solver used (exhaustive search)"
			r.EnumerationVerdict = cyclicNCQ + backtracking
		}
		r.CountingVerdict = "not covered (negative queries: see #SAT literature, Section 4.5)" + backtracking
	case r.HasNegation:
		r.DecisionVerdict = "signed query: only partial characterizations known ([18], Section 4.5)" + backtracking
		r.CountingVerdict = r.DecisionVerdict
		r.EnumerationVerdict = r.DecisionVerdict
	case r.HasOrder:
		r.DecisionVerdict = "W[1]-complete in general (ACQ<, Theorem 4.15)" + backtracking
		r.CountingVerdict = r.DecisionVerdict
		r.EnumerationVerdict = r.DecisionVerdict
	case !r.Acyclic:
		r.DecisionVerdict = "cyclic: NP-complete combined complexity (Chandra–Merlin)" + backtracking
		r.CountingVerdict = "cyclic: ♯P-hard in general" + backtracking
		if r.SelfJoinFree {
			r.EnumerationVerdict = "no Constant-Delay_lin expected (Theorem 4.9 under Hyperclique)" + backtracking
		} else {
			r.EnumerationVerdict = "cyclic (self-joins: classification open)" + backtracking
		}
	default:
		// Acyclic; any comparisons are = or ≠. With comparisons, deciding
		// backtracks and counting runs inclusion–exclusion over them;
		// enumeration keeps the witness-set enumerator for a free-connex
		// query whose comparisons are all ≠ and backtracks otherwise.
		cmp := r.HasDiseq || hasEq
		r.DecisionVerdict = "O(‖φ‖·‖D‖) semijoin pass (Yannakakis, Theorem 4.2)"
		if cmp {
			r.DecisionVerdict = "O(‖φ‖·‖D‖) for the comparison-free part (Theorem 4.2)" + backtracking
		}
		switch {
		case r.StarSize == 1 && cmp:
			r.CountingVerdict = "polynomial, k = 1 (free-connex, Theorem 4.28); inclusion–exclusion over the comparisons used"
		case r.StarSize == 1:
			r.CountingVerdict = "polynomial via star-size algorithm, k = 1 (free-connex, Theorem 4.28)"
		default:
			format := "(‖D‖+‖φ‖)^O(k) via star-size algorithm, k = %d (Theorem 4.28)"
			if cmp {
				format = "(‖D‖+‖φ‖)^O(k), k = %d (Theorem 4.28); inclusion–exclusion over the comparisons used"
			}
			r.CountingVerdict = fmt.Sprintf(format, r.StarSize)
		}
		suffix := ""
		switch {
		case r.HasDiseq && !hasEq && r.FreeConnex:
			suffix = disequalities
		case r.HasDiseq:
			suffix = disequalities + backtracking
		case hasEq:
			suffix = backtracking
		}
		if r.FreeConnex {
			r.EnumerationVerdict = "Constant-Delay_lin (free-connex, Theorem 4.6)" + suffix
		} else if r.SelfJoinFree {
			r.EnumerationVerdict = "linear delay (Theorem 4.3); constant delay impossible under Mat-Mul (Theorem 4.8)" + suffix
		} else {
			r.EnumerationVerdict = "linear delay (Theorem 4.3); not free-connex (self-joins: classification open)" + suffix
		}
	}
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

	// Report is the classification of CQ (nil for union plans; see
	// Disjuncts).
	Report *Report

	DecideEngine    Engine
	CountEngine     Engine
	EnumerateEngine Engine

	// JoinTree is the GYO join tree of the comparison-free part of the
	// query, when that part is acyclic (nil otherwise, and for unions).
	JoinTree *hypergraph.JoinTree

	// Disjuncts holds the compiled per-disjunct plans of a union.
	Disjuncts []*Plan

	fp      uint64
	boolQ   *logic.CQ // head-stripped query, for the decision engines
	plain   *logic.CQ // comparison-free query, for the classification of enumeration
	boolDjs []*Plan   // compiled head-stripped disjuncts, for union decide
	unionOK bool      // the union admits free-connex union extensions
}

// Fingerprint is the structural 64-bit fingerprint of the compiled query,
// the plan cache key.
func (p *Plan) Fingerprint() uint64 { return p.fp }

// Compile classifies q and fixes the engine for each task. The result is
// immutable and independent of any database: compile once, Bind per
// database (and per mutation), execute any number of times.
func Compile(q *logic.CQ) (*Plan, error) {
	if q == nil {
		return nil, errors.New("plan: nil query")
	}
	rep := Analyze(q)
	p := &Plan{CQ: q, Report: rep, fp: FingerprintCQ(q)}
	p.boolQ = &logic.CQ{Name: q.Name, Atoms: q.Atoms, NegAtoms: q.NegAtoms, Comparisons: q.Comparisons}

	// Decision routing (on the head-stripped query), mirroring the paper's
	// decision dichotomy.
	switch {
	case rep.HasNegation && len(q.Atoms) == 0:
		p.DecideEngine = EngineNCQ
	case rep.HasNegation:
		p.DecideEngine = EngineBacktrack
	case len(q.Comparisons) > 0 || !rep.Acyclic:
		p.DecideEngine = EngineBacktrack
	default:
		p.DecideEngine = EngineYannakakis
	}

	// Counting routing (Theorem 4.28 and the ≠-extension).
	switch {
	case !rep.HasNegation && len(q.Comparisons) == 0 && rep.Acyclic:
		p.CountEngine = EngineStarSizeCount
	case !rep.HasNegation && !rep.HasOrder && rep.Acyclic:
		p.CountEngine = EngineNeqCount
	default:
		p.CountEngine = EngineBacktrack
	}

	// Enumeration routing: order comparisons (and equalities) or a cyclic
	// core force materialization; otherwise the free-connex/linear-delay
	// dichotomy applies, with the witness-set enumerator when
	// disequalities remain.
	hasOrderEnum, hasDiseq := false, false
	for _, cmp := range q.Comparisons {
		switch cmp.Op {
		case logic.LT, logic.LE, logic.EQ:
			hasOrderEnum = true
		case logic.NEQ:
			hasDiseq = true
		}
	}
	p.plain = &logic.CQ{Name: q.Name, Head: q.Head, Atoms: q.Atoms}
	plainAcyclic := p.plain.IsAcyclic()
	switch {
	case rep.HasNegation:
		p.EnumerateEngine = EngineBacktrack
	case hasOrderEnum || !plainAcyclic:
		p.EnumerateEngine = EngineBacktrack
	case hasDiseq && p.plain.IsFreeConnex():
		p.EnumerateEngine = EngineNeqEnum
	case hasDiseq:
		p.EnumerateEngine = EngineBacktrack
	case p.plain.IsFreeConnex():
		p.EnumerateEngine = EngineConstantDelay
	default:
		p.EnumerateEngine = EngineLinearDelay
	}

	if plainAcyclic && !rep.HasNegation {
		if jt, ok := hypergraph.GYO(p.plain.Hypergraph()); ok {
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
	p := &Plan{
		UCQ:          u,
		fp:           FingerprintUCQ(u),
		DecideEngine: EngineUnionShortCircuit,
		CountEngine:  EngineInclusionExclusion,
	}
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
		p.EnumerateEngine = EngineUnionExtension
	} else {
		p.EnumerateEngine = EngineUnionMaterialize
	}
	return p, nil
}

// unionMaxExtra bounds the number of fresh atoms tried per disjunct in the
// union-extension search.
const unionMaxExtra = 2
