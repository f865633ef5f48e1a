// Package core is the public face of the library: it classifies a query
// along the paper's tractability dichotomies and dispatches the decision,
// counting and enumeration tasks to the matching engine.
//
// The classification implements the fine-grained frontier the survey maps
// out:
//
//   - acyclicity (GYO) gates the Yannakakis algorithm (Theorem 4.2);
//   - free-connexity decides Constant-Delay_lin enumerability for self-join
//     free conjunctive queries, assuming Mat-Mul and Hyperclique
//     (Theorems 4.8/4.9) — also in the presence of disequalities
//     (Theorem 4.20);
//   - the quantified star size locates the counting complexity of acyclic
//     queries: polynomial attainable exponent k (Theorem 4.28), #W[1]-hard
//     beyond bounded star size;
//   - β-acyclicity decides quasi-linear decidability of negative queries
//     (Theorem 4.31, assuming Triangle);
//   - order comparisons (<, ≤) put even acyclic queries at W[1]-hardness
//     (Theorem 4.15).
//
// Since the introduction of the Compile → Bind → Execute pipeline the
// classifier and the dispatch live in internal/plan; the one-shot
// functions here are thin wrappers — each call compiles, binds, and
// executes once. Callers that repeat a (query, database) pair should use
// the pipeline (or a plan.Cache) directly and pay the preprocessing once.
package core

import (
	"math/big"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/plan"
)

// Report is the tractability classification of a conjunctive query. It is
// produced by the plan compiler; the alias keeps the historical core API.
type Report = plan.Report

// Analyze classifies q along the paper's dichotomies.
func Analyze(q *logic.CQ) *Report {
	return plan.Analyze(q)
}

// Decide answers the Boolean version of q over db with the best applicable
// engine.
func Decide(db *database.Database, q *logic.CQ) (bool, error) {
	// The decision problem concerns the head-stripped query; compiling the
	// Boolean query keeps Bind from building an enumeration spine wider
	// than the decision needs.
	bq := &logic.CQ{Name: q.Name, Atoms: q.Atoms, NegAtoms: q.NegAtoms, Comparisons: q.Comparisons}
	p, err := plan.Compile(bq)
	if err != nil {
		return false, err
	}
	pr, err := p.Bind(db)
	if err != nil {
		return false, err
	}
	return pr.Decide(nil)
}

// DecideUCQ answers the Boolean version of a union of conjunctive queries:
// true iff some disjunct decides true. Disjuncts are decided in order and
// the scan short-circuits at the first satisfied one.
func DecideUCQ(db *database.Database, u *logic.UCQ) (bool, error) {
	p, err := plan.CompileUCQ(u)
	if err != nil {
		return false, err
	}
	pr, err := p.Bind(db)
	if err != nil {
		return false, err
	}
	return pr.Decide(nil)
}

// Count computes |φ(D)| with the best applicable engine.
func Count(db *database.Database, q *logic.CQ) (*big.Int, error) {
	p, err := plan.Compile(q)
	if err != nil {
		return nil, err
	}
	pr, err := p.Bind(db)
	if err != nil {
		return nil, err
	}
	return pr.Count(nil)
}

// CountUCQ counts the answers of a union of conjunctive queries by
// inclusion–exclusion over disjunct intersections.
func CountUCQ(db *database.Database, u *logic.UCQ) (*big.Int, error) {
	p, err := plan.CompileUCQ(u)
	if err != nil {
		return nil, err
	}
	pr, err := p.Bind(db)
	if err != nil {
		return nil, err
	}
	return pr.Count(nil)
}

// Enumerate produces an answer enumerator with the best applicable engine:
// constant delay for free-connex (with or without disequalities), linear
// delay for other acyclic queries, and a materializing fallback otherwise.
// The preprocessing of the underlying engine runs inside BindCounted, so
// counted steps are placed exactly as when calling the engine directly.
func Enumerate(db *database.Database, q *logic.CQ, c *delay.Counter) (delay.Enumerator, error) {
	p, err := plan.Compile(q)
	if err != nil {
		return nil, err
	}
	pr, err := p.BindCounted(db, c)
	if err != nil {
		return nil, err
	}
	return pr.Enumerate(c)
}
