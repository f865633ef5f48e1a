// Package logic defines the query languages of the paper — conjunctive
// queries (CQ, Section 4), unions of conjunctive queries (UCQ, Section 4.2),
// conjunctive queries with comparisons and disequalities (Section 4.3),
// negative conjunctive queries (NCQ, Section 4.5), and first-order /
// monadic-second-order formulas (Sections 3 and 5) — together with naive
// reference evaluators and a text parser.
package logic

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/database"
	"repro/internal/hypergraph"
)

// Term is a variable or a constant.
type Term struct {
	Var     string
	IsConst bool
	Const   database.Value
}

// V makes a variable term.
func V(name string) Term { return Term{Var: name} }

// C makes a constant term.
func C(v database.Value) Term { return Term{IsConst: true, Const: v} }

// String renders the term.
func (t Term) String() string {
	if t.IsConst {
		return fmt.Sprintf("%d", t.Const)
	}
	return t.Var
}

// Atom is a relational atom R(t1,...,tk).
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom over variables only, the common case.
func NewAtom(pred string, vars ...string) Atom {
	a := Atom{Pred: pred}
	for _, v := range vars {
		a.Args = append(a.Args, V(v))
	}
	return a
}

// Vars returns the distinct variables of the atom, in first-occurrence order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if !t.IsConst && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// CompOp is a comparison operator (Section 4.3).
type CompOp int

// Comparison operators. NEQ is the disequality of ACQ≠; LT/LE are the order
// comparisons of ACQ< and ACQ≤.
const (
	EQ CompOp = iota
	NEQ
	LT
	LE
)

// String renders the operator.
func (op CompOp) String() string {
	switch op {
	case EQ:
		return "="
	case NEQ:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	}
	return "?"
}

// Eval applies the operator to two values.
func (op CompOp) Eval(a, b database.Value) bool {
	switch op {
	case EQ:
		return a == b
	case NEQ:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	}
	return false
}

// Comparison is an atom z ◁ z' with ◁ ∈ {=, ≠, <, ≤} (Definition 4.14).
type Comparison struct {
	Op   CompOp
	L, R Term
}

// String renders the comparison.
func (c Comparison) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

// CQ is a conjunctive query φ(x) := ∃y ⋀ᵢ Rᵢ(zᵢ), possibly extended with
// negated atoms (NCQ, Section 4.5) and comparisons (Section 4.3). Head lists
// the free variables in output order; every other variable is existentially
// quantified.
type CQ struct {
	Name        string
	Head        []string
	Atoms       []Atom
	NegAtoms    []Atom
	Comparisons []Comparison
}

// Vars returns all variables of the query in first-occurrence order
// (head first, then body).
func (q *CQ) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range q.Head {
		add(v)
	}
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			add(v)
		}
	}
	for _, a := range q.NegAtoms {
		for _, v := range a.Vars() {
			add(v)
		}
	}
	for _, c := range q.Comparisons {
		if !c.L.IsConst {
			add(c.L.Var)
		}
		if !c.R.IsConst {
			add(c.R.Var)
		}
	}
	return out
}

// ExistentialVars returns the non-head variables in first-occurrence order.
func (q *CQ) ExistentialVars() []string {
	head := make(map[string]bool, len(q.Head))
	for _, v := range q.Head {
		head[v] = true
	}
	var out []string
	for _, v := range q.Vars() {
		if !head[v] {
			out = append(out, v)
		}
	}
	return out
}

// IsBoolean reports whether the query is a sentence (arity 0).
func (q *CQ) IsBoolean() bool { return len(q.Head) == 0 }

// IsSelfJoinFree reports whether no relation symbol occurs twice among the
// positive atoms (Section 4: "A query is said to be self-join free if no
// relation symbol is used more than once").
func (q *CQ) IsSelfJoinFree() bool {
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		if seen[a.Pred] {
			return false
		}
		seen[a.Pred] = true
	}
	return true
}

// Hypergraph returns the query hypergraph (Section 4): vertices are the
// variables, hyperedges the atoms. Following Definition 4.14, comparison
// atoms do not contribute hyperedges; negated atoms do (Section 4.5 extends
// acyclicity "to negative atoms as well"). Head variables that appear in no
// atom are added as isolated vertices.
func (q *CQ) Hypergraph() *hypergraph.Hypergraph {
	h := hypergraph.New()
	for i, a := range q.Atoms {
		h.AddEdge(hypergraph.NewEdge(fmt.Sprintf("%s#%d", a.Pred, i), a.Vars()...))
	}
	for i, a := range q.NegAtoms {
		h.AddEdge(hypergraph.NewEdge(fmt.Sprintf("!%s#%d", a.Pred, i), a.Vars()...))
	}
	for _, v := range q.Head {
		h.AddVertex(v)
	}
	return h
}

// IsAcyclic reports α-acyclicity of the query hypergraph.
func (q *CQ) IsAcyclic() bool { return hypergraph.IsAcyclic(q.Hypergraph()) }

// IsFreeConnex reports free-connexity (Definition 4.4).
func (q *CQ) IsFreeConnex() bool {
	return hypergraph.FreeConnex(q.Hypergraph(), q.Head)
}

// QuantifiedStarSize returns the quantified star size (Definition 4.26).
// The query must be acyclic.
func (q *CQ) QuantifiedStarSize() int {
	return hypergraph.QuantifiedStarSize(q.Hypergraph(), q.Head)
}

// Size returns ‖φ‖, the number of symbols needed to write the query
// (Section 2.1): one per predicate plus one per argument, per comparison
// operand, plus the head.
func (q *CQ) Size() int {
	n := 1 + len(q.Head)
	for _, a := range q.Atoms {
		n += 1 + len(a.Args)
	}
	for _, a := range q.NegAtoms {
		n += 2 + len(a.Args)
	}
	n += 3 * len(q.Comparisons)
	return n
}

// String renders the query in rule syntax, e.g.
// "Q(x,y) :- R(x,z), S(z,y), x != y.".
func (q *CQ) String() string {
	var b strings.Builder
	name := q.Name
	if name == "" {
		name = "Q"
	}
	b.WriteString(name)
	b.WriteByte('(')
	b.WriteString(strings.Join(q.Head, ","))
	b.WriteString(") :- ")
	var parts []string
	for _, a := range q.Atoms {
		parts = append(parts, a.String())
	}
	for _, a := range q.NegAtoms {
		parts = append(parts, "!"+a.String())
	}
	for _, c := range q.Comparisons {
		parts = append(parts, c.String())
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteByte('.')
	return b.String()
}

// Assignment maps variables to domain values.
type Assignment map[string]database.Value

// holds evaluates all atoms, negated atoms and comparisons under a total
// assignment of the query's variables.
func (q *CQ) holds(db *database.Database, asg Assignment) bool {
	for _, a := range q.Atoms {
		if !atomHolds(db, a, asg) {
			return false
		}
	}
	for _, a := range q.NegAtoms {
		if atomHolds(db, a, asg) {
			return false
		}
	}
	for _, c := range q.Comparisons {
		l, r := termValue(c.L, asg), termValue(c.R, asg)
		if !c.Op.Eval(l, r) {
			return false
		}
	}
	return true
}

func termValue(t Term, asg Assignment) database.Value {
	if t.IsConst {
		return t.Const
	}
	return asg[t.Var]
}

func atomHolds(db *database.Database, a Atom, asg Assignment) bool {
	r := db.Relation(a.Pred)
	if r == nil {
		return false
	}
	t := make(database.Tuple, len(a.Args))
	for i, arg := range a.Args {
		t[i] = termValue(arg, asg)
	}
	return r.Contains(t)
}

// EvalNaive computes φ(D) by brute force over all assignments of the
// query's variables to the active domain — the NP-complete combined
// complexity baseline of Chandra–Merlin mentioned in the introduction. It is
// the reference implementation all engines are differentially tested
// against; use only on small inputs.
func (q *CQ) EvalNaive(db *database.Database) []database.Tuple {
	dom := db.Domain()
	vars := q.Vars()
	asg := make(Assignment, len(vars))
	var out []database.Tuple
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			if q.holds(db, asg) {
				t := make(database.Tuple, len(q.Head))
				for j, v := range q.Head {
					t[j] = asg[v]
				}
				out = append(out, t)
			}
			return
		}
		for _, v := range dom {
			asg[vars[i]] = v
			rec(i + 1)
		}
		delete(asg, vars[i])
	}
	rec(0)
	return sortedSet(out)
}

// sortedSet sorts ts and drops the repeats, as the naive evaluators return
// their answers.
func sortedSet(ts []database.Tuple) []database.Tuple {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return slices.CompactFunc(ts, database.Tuple.Equal)
}

// CountNaive returns |φ(D)| by brute force.
func (q *CQ) CountNaive(db *database.Database) int {
	return len(q.EvalNaive(db))
}

// DecideNaive reports whether the Boolean query holds by brute force.
func (q *CQ) DecideNaive(db *database.Database) bool {
	dom := db.Domain()
	vars := q.Vars()
	asg := make(Assignment, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return q.holds(db, asg)
		}
		for _, v := range dom {
			asg[vars[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		delete(asg, vars[i])
		return false
	}
	return rec(0)
}

// UCQ is a union of conjunctive queries φ = φ1 ∨ ... ∨ φk
// (Definition 4.10). All disjuncts must share the same head arity; answers
// are positional.
type UCQ struct {
	Name      string
	Disjuncts []*CQ
}

// Arity returns the common head arity of the disjuncts.
func (u *UCQ) Arity() int {
	if len(u.Disjuncts) == 0 {
		return 0
	}
	return len(u.Disjuncts[0].Head)
}

// Validate checks that all disjuncts have the same arity.
func (u *UCQ) Validate() error {
	for _, d := range u.Disjuncts {
		if len(d.Head) != u.Arity() {
			return fmt.Errorf("logic: UCQ %s mixes arities %d and %d", u.Name, u.Arity(), len(d.Head))
		}
	}
	return nil
}

// EvalNaive evaluates the union by brute force, deduplicating across
// disjuncts.
func (u *UCQ) EvalNaive(db *database.Database) []database.Tuple {
	var out []database.Tuple
	for _, d := range u.Disjuncts {
		out = append(out, d.EvalNaive(db)...)
	}
	return sortedSet(out)
}

// String renders the union.
func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		parts[i] = d.String()
	}
	return strings.Join(parts, "  ∨  ")
}
