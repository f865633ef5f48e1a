package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/database"
)

// Formula is a first-order or monadic-second-order formula (Sections 2, 3
// and 5). Set variables make the MSO and prefix-class fragments of
// Sections 3.3 and 5 expressible.
type Formula interface {
	fmt.Stringer
	formula()
}

// FAtom is a relational atom R(t1,...,tk).
type FAtom struct {
	Pred string
	Args []Term
}

// FComp is a comparison t1 ◁ t2 with ◁ ∈ {=, ≠, <, ≤}.
type FComp struct {
	Op   CompOp
	L, R Term
}

// FMember is set membership t ∈ X, with X a monadic second-order variable.
type FMember struct {
	Set  string
	Elem Term
}

// FNot is negation.
type FNot struct{ F Formula }

// FAnd is conjunction.
type FAnd struct{ Fs []Formula }

// FOr is disjunction.
type FOr struct{ Fs []Formula }

// FExists is first-order existential quantification over one variable.
type FExists struct {
	Var string
	F   Formula
}

// FForall is first-order universal quantification over one variable.
type FForall struct {
	Var string
	F   Formula
}

// FExistsSet is monadic second-order existential quantification.
type FExistsSet struct {
	Set string
	F   Formula
}

// FForallSet is monadic second-order universal quantification.
type FForallSet struct {
	Set string
	F   Formula
}

func (FAtom) formula()      {}
func (FComp) formula()      {}
func (FMember) formula()    {}
func (FNot) formula()       {}
func (FAnd) formula()       {}
func (FOr) formula()        {}
func (FExists) formula()    {}
func (FForall) formula()    {}
func (FExistsSet) formula() {}
func (FForallSet) formula() {}

// And builds a conjunction, flattening the trivial cases.
func And(fs ...Formula) Formula {
	if len(fs) == 1 {
		return fs[0]
	}
	return FAnd{Fs: fs}
}

// Or builds a disjunction, flattening the trivial cases.
func Or(fs ...Formula) Formula {
	if len(fs) == 1 {
		return fs[0]
	}
	return FOr{Fs: fs}
}

// Not negates a formula.
func Not(f Formula) Formula { return FNot{F: f} }

// Exists quantifies variables left to right: Exists("x","y",f) = ∃x∃y f.
func Exists(vars []string, f Formula) Formula {
	for i := len(vars) - 1; i >= 0; i-- {
		f = FExists{Var: vars[i], F: f}
	}
	return f
}

func (f FAtom) String() string {
	parts := make([]string, len(f.Args))
	for i, t := range f.Args {
		parts[i] = t.String()
	}
	return f.Pred + "(" + strings.Join(parts, ",") + ")"
}
func (f FComp) String() string   { return f.L.String() + " " + f.Op.String() + " " + f.R.String() }
func (f FMember) String() string { return f.Elem.String() + " in " + f.Set }
func (f FNot) String() string    { return "not (" + f.F.String() + ")" }
func (f FAnd) String() string {
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = "(" + g.String() + ")"
	}
	return strings.Join(parts, " and ")
}
func (f FOr) String() string {
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = "(" + g.String() + ")"
	}
	return strings.Join(parts, " or ")
}
func (f FExists) String() string    { return "exists " + f.Var + ". " + f.F.String() }
func (f FForall) String() string    { return "forall " + f.Var + ". " + f.F.String() }
func (f FExistsSet) String() string { return "exists set " + f.Set + ". " + f.F.String() }
func (f FForallSet) String() string { return "forall set " + f.Set + ". " + f.F.String() }

// FreeVars returns the free first-order variables of f, sorted.
func FreeVars(f Formula) []string {
	set := make(map[string]bool)
	freeVarsInto(f, make(map[string]bool), set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func freeVarsInto(f Formula, bound map[string]bool, out map[string]bool) {
	addTerm := func(t Term) {
		if !t.IsConst && !bound[t.Var] {
			out[t.Var] = true
		}
	}
	switch g := f.(type) {
	case FAtom:
		for _, t := range g.Args {
			addTerm(t)
		}
	case FComp:
		addTerm(g.L)
		addTerm(g.R)
	case FMember:
		addTerm(g.Elem)
	case FNot:
		freeVarsInto(g.F, bound, out)
	case FAnd:
		for _, h := range g.Fs {
			freeVarsInto(h, bound, out)
		}
	case FOr:
		for _, h := range g.Fs {
			freeVarsInto(h, bound, out)
		}
	case FExists:
		was := bound[g.Var]
		bound[g.Var] = true
		freeVarsInto(g.F, bound, out)
		bound[g.Var] = was
	case FForall:
		was := bound[g.Var]
		bound[g.Var] = true
		freeVarsInto(g.F, bound, out)
		bound[g.Var] = was
	case FExistsSet:
		freeVarsInto(g.F, bound, out)
	case FForallSet:
		freeVarsInto(g.F, bound, out)
	}
}

// FreeSetVars returns the free monadic second-order variables of f, sorted.
func FreeSetVars(f Formula) []string {
	set := make(map[string]bool)
	freeSetVarsInto(f, make(map[string]bool), set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func freeSetVarsInto(f Formula, bound map[string]bool, out map[string]bool) {
	switch g := f.(type) {
	case FMember:
		if !bound[g.Set] {
			out[g.Set] = true
		}
	case FNot:
		freeSetVarsInto(g.F, bound, out)
	case FAnd:
		for _, h := range g.Fs {
			freeSetVarsInto(h, bound, out)
		}
	case FOr:
		for _, h := range g.Fs {
			freeSetVarsInto(h, bound, out)
		}
	case FExists:
		freeSetVarsInto(g.F, bound, out)
	case FForall:
		freeSetVarsInto(g.F, bound, out)
	case FExistsSet:
		was := bound[g.Set]
		bound[g.Set] = true
		freeSetVarsInto(g.F, bound, out)
		bound[g.Set] = was
	case FForallSet:
		was := bound[g.Set]
		bound[g.Set] = true
		freeSetVarsInto(g.F, bound, out)
		bound[g.Set] = was
	}
}

// QuantifierRank returns the maximal nesting depth of quantifiers
// (first-order and second-order combined).
func QuantifierRank(f Formula) int {
	switch g := f.(type) {
	case FAtom, FComp, FMember:
		return 0
	case FNot:
		return QuantifierRank(g.F)
	case FAnd:
		m := 0
		for _, h := range g.Fs {
			if r := QuantifierRank(h); r > m {
				m = r
			}
		}
		return m
	case FOr:
		m := 0
		for _, h := range g.Fs {
			if r := QuantifierRank(h); r > m {
				m = r
			}
		}
		return m
	case FExists:
		return 1 + QuantifierRank(g.F)
	case FForall:
		return 1 + QuantifierRank(g.F)
	case FExistsSet:
		return 1 + QuantifierRank(g.F)
	case FForallSet:
		return 1 + QuantifierRank(g.F)
	}
	return 0
}

// Size returns ‖φ‖: the number of symbols of the formula.
func Size(f Formula) int {
	switch g := f.(type) {
	case FAtom:
		return 1 + len(g.Args)
	case FComp:
		return 3
	case FMember:
		return 3
	case FNot:
		return 1 + Size(g.F)
	case FAnd:
		n := len(g.Fs) - 1
		for _, h := range g.Fs {
			n += Size(h)
		}
		return n
	case FOr:
		n := len(g.Fs) - 1
		for _, h := range g.Fs {
			n += Size(h)
		}
		return n
	case FExists:
		return 2 + Size(g.F)
	case FForall:
		return 2 + Size(g.F)
	case FExistsSet:
		return 2 + Size(g.F)
	case FForallSet:
		return 2 + Size(g.F)
	}
	return 0
}

// SetAssignment maps set variables to subsets of the domain.
type SetAssignment map[string]map[database.Value]bool

// Interpretation bundles the two assignments used when evaluating formulas
// with first- and second-order free variables, as in φ(x̄, X̄) of Section 5.
type Interpretation struct {
	FirstOrder Assignment
	Sets       SetAssignment
}

// Eval decides D ⊨ f under the given interpretation, by brute force over
// the active domain for first-order quantifiers and over all subsets of the
// active domain for set quantifiers. Data complexity ‖D‖^h for FO
// (Section 3) and exponential for MSO; this is the reference evaluator.
func Eval(db *database.Database, f Formula, in Interpretation) bool {
	if in.FirstOrder == nil {
		in.FirstOrder = Assignment{}
	}
	if in.Sets == nil {
		in.Sets = SetAssignment{}
	}
	return eval(db, db.Domain(), f, in)
}

func eval(db *database.Database, dom []database.Value, f Formula, in Interpretation) bool {
	switch g := f.(type) {
	case FAtom:
		r := db.Relation(g.Pred)
		if r == nil {
			return false
		}
		t := make(database.Tuple, len(g.Args))
		for i, a := range g.Args {
			t[i] = termValue(a, in.FirstOrder)
		}
		return r.Contains(t)
	case FComp:
		return g.Op.Eval(termValue(g.L, in.FirstOrder), termValue(g.R, in.FirstOrder))
	case FMember:
		s := in.Sets[g.Set]
		return s != nil && s[termValue(g.Elem, in.FirstOrder)]
	case FNot:
		return !eval(db, dom, g.F, in)
	case FAnd:
		for _, h := range g.Fs {
			if !eval(db, dom, h, in) {
				return false
			}
		}
		return true
	case FOr:
		for _, h := range g.Fs {
			if eval(db, dom, h, in) {
				return true
			}
		}
		return false
	case FExists:
		old, had := in.FirstOrder[g.Var]
		for _, v := range dom {
			in.FirstOrder[g.Var] = v
			if eval(db, dom, g.F, in) {
				restore(in.FirstOrder, g.Var, old, had)
				return true
			}
		}
		restore(in.FirstOrder, g.Var, old, had)
		return false
	case FForall:
		old, had := in.FirstOrder[g.Var]
		for _, v := range dom {
			in.FirstOrder[g.Var] = v
			if !eval(db, dom, g.F, in) {
				restore(in.FirstOrder, g.Var, old, had)
				return false
			}
		}
		restore(in.FirstOrder, g.Var, old, had)
		return true
	case FExistsSet:
		oldSet := in.Sets[g.Set]
		found := forEachSubset(dom, func(s map[database.Value]bool) bool {
			in.Sets[g.Set] = s
			return eval(db, dom, g.F, in)
		})
		in.Sets[g.Set] = oldSet
		return found
	case FForallSet:
		oldSet := in.Sets[g.Set]
		foundCounter := forEachSubset(dom, func(s map[database.Value]bool) bool {
			in.Sets[g.Set] = s
			return !eval(db, dom, g.F, in)
		})
		in.Sets[g.Set] = oldSet
		return !foundCounter
	}
	return false
}

func restore(asg Assignment, v string, old database.Value, had bool) {
	if had {
		asg[v] = old
	} else {
		delete(asg, v)
	}
}

// forEachSubset calls visit on every subset of dom until visit returns true;
// it reports whether any call did.
func forEachSubset(dom []database.Value, visit func(map[database.Value]bool) bool) bool {
	n := len(dom)
	if n > 30 {
		panic("logic: domain too large for subset enumeration")
	}
	for mask := 0; mask < (1 << n); mask++ {
		s := make(map[database.Value]bool)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s[dom[i]] = true
			}
		}
		if visit(s) {
			return true
		}
	}
	return false
}

// EvalFO enumerates φ(D) for a formula with free first-order variables only,
// by brute force. Answers are tuples over the free variables in the order
// given by freeOrder (which must be a permutation of FreeVars(f)).
func EvalFO(db *database.Database, f Formula, freeOrder []string) []database.Tuple {
	dom := db.Domain()
	asg := Assignment{}
	in := Interpretation{FirstOrder: asg, Sets: SetAssignment{}}
	var out []database.Tuple
	var rec func(i int)
	rec = func(i int) {
		if i == len(freeOrder) {
			if eval(db, dom, f, in) {
				t := make(database.Tuple, len(freeOrder))
				for j, v := range freeOrder {
					t[j] = asg[v]
				}
				out = append(out, t)
			}
			return
		}
		for _, v := range dom {
			asg[freeOrder[i]] = v
			rec(i + 1)
		}
		delete(asg, freeOrder[i])
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// CountMixed counts |φ(D)| = |{(ā,Ā) : D ⊨ φ(ā,Ā)}| for a formula with both
// free first-order and free set variables (the counting problems of
// Section 5), by brute force.
func CountMixed(db *database.Database, f Formula) int {
	dom := db.Domain()
	fo := FreeVars(f)
	sets := FreeSetVars(f)
	asg := Assignment{}
	in := Interpretation{FirstOrder: asg, Sets: SetAssignment{}}
	count := 0
	var recSets func(i int)
	recSets = func(i int) {
		if i == len(sets) {
			if eval(db, dom, f, in) {
				count++
			}
			return
		}
		forEachSubset(dom, func(s map[database.Value]bool) bool {
			in.Sets[sets[i]] = s
			recSets(i + 1)
			return false
		})
		delete(in.Sets, sets[i])
	}
	var recFO func(i int)
	recFO = func(i int) {
		if i == len(fo) {
			recSets(0)
			return
		}
		for _, v := range dom {
			asg[fo[i]] = v
			recFO(i + 1)
		}
		delete(asg, fo[i])
	}
	recFO(0)
	return count
}

// CQToFormula converts a conjunctive query to the equivalent first-order
// formula ∃ȳ ⋀ atoms ∧ ⋀ ¬negatoms ∧ ⋀ comparisons.
func CQToFormula(q *CQ) Formula {
	var fs []Formula
	for _, a := range q.Atoms {
		fs = append(fs, FAtom{Pred: a.Pred, Args: a.Args})
	}
	for _, a := range q.NegAtoms {
		fs = append(fs, Not(FAtom{Pred: a.Pred, Args: a.Args}))
	}
	for _, c := range q.Comparisons {
		fs = append(fs, FComp{Op: c.Op, L: c.L, R: c.R})
	}
	body := And(fs...)
	return Exists(q.ExistentialVars(), body)
}
