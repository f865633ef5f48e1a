package fodeg

import "fmt"

// Lit is a literal of the quantifier-free normal form: a (possibly
// negated) predicate atom P(t) or equality t1 = t2. Predicate atoms hold
// iff the term is defined and the bitmap holds; equalities hold iff both
// sides are defined and equal. Negation is classical.
type Lit struct {
	Neg  bool
	Pred int // bitmap id, or -1 for an equality literal
	T1   Term
	T2   Term // only for equality literals
}

// CConj is a conjunction of literals; CDNF a disjunction of conjunctions.
// An empty CConj is true; an empty CDNF is false.
type CConj []Lit

// CDNF is a disjunction of conjunctions of literals.
type CDNF []CConj

// EvalLit evaluates a literal under an assignment of its variables.
func (s *Structure) EvalLit(l Lit, asg map[string]int) bool {
	var v bool
	if l.Pred >= 0 {
		a := l.T1.evalAsg(s, asg)
		v = a >= 0 && s.preds[l.Pred][a]
	} else {
		a := l.T1.evalAsg(s, asg)
		b := l.T2.evalAsg(s, asg)
		v = a >= 0 && b >= 0 && a == b
	}
	if l.Neg {
		return !v
	}
	return v
}

// EvalConj evaluates a conjunction under an assignment.
func (s *Structure) EvalConj(c CConj, asg map[string]int) bool {
	for _, l := range c {
		if !s.EvalLit(l, asg) {
			return false
		}
	}
	return true
}

// mentions reports whether the literal mentions variable v.
func (l Lit) mentions(v string) bool {
	if l.T1.Var == v {
		return true
	}
	return l.Pred < 0 && l.T2.Var == v
}

// Compile performs the quantifier elimination of Section 3 on a functional
// formula, producing an equivalent quantifier-free DNF over the free
// variables, together with derived predicates registered in the structure
// (the enriched structure D′ of the paper). The work is f(‖φ‖)·n: every
// derived bitmap costs one linear pass; the per-quantifier case analysis
// (Example 3.3's ∃^{h+1}ψ thresholds and ψ^Q_P subsets) is data-independent.
func (s *Structure) Compile(f Formula) (CDNF, error) {
	g := nnf(f, false)
	return s.compile(g)
}

// nnf pushes negations down to atoms.
func nnf(f Formula, neg bool) Formula {
	switch h := f.(type) {
	case Pr, Eq:
		if neg {
			return Not{F: f}
		}
		return f
	case Not:
		return nnf(h.F, !neg)
	case Conj:
		fs := make([]Formula, len(h.Fs))
		for i, x := range h.Fs {
			fs[i] = nnf(x, neg)
		}
		if neg {
			return Disj{Fs: fs}
		}
		return Conj{Fs: fs}
	case Disj:
		fs := make([]Formula, len(h.Fs))
		for i, x := range h.Fs {
			fs[i] = nnf(x, neg)
		}
		if neg {
			return Conj{Fs: fs}
		}
		return Disj{Fs: fs}
	case Ex:
		if neg {
			return All{Var: h.Var, F: nnf(h.F, true)}
		}
		return Ex{Var: h.Var, F: nnf(h.F, false)}
	case All:
		if neg {
			return Ex{Var: h.Var, F: nnf(h.F, true)}
		}
		return All{Var: h.Var, F: nnf(h.F, false)}
	}
	panic("fodeg: nnf: unknown node")
}

func (s *Structure) compile(f Formula) (CDNF, error) {
	switch h := f.(type) {
	case Pr:
		return CDNF{{Lit{Pred: h.Pred, T1: h.T}}}, nil
	case Eq:
		return CDNF{{Lit{Pred: -1, T1: h.T1, T2: h.T2}}}, nil
	case Not:
		switch a := h.F.(type) {
		case Pr:
			return CDNF{{Lit{Neg: true, Pred: a.Pred, T1: a.T}}}, nil
		case Eq:
			return CDNF{{Lit{Neg: true, Pred: -1, T1: a.T1, T2: a.T2}}}, nil
		}
		return nil, fmt.Errorf("fodeg: non-atomic negation after NNF")
	case Conj:
		out := CDNF{{}}
		for _, x := range h.Fs {
			d, err := s.compile(x)
			if err != nil {
				return nil, err
			}
			out = distribute(out, d)
		}
		return out, nil
	case Disj:
		var out CDNF
		for _, x := range h.Fs {
			d, err := s.compile(x)
			if err != nil {
				return nil, err
			}
			out = append(out, d...)
		}
		return out, nil
	case Ex:
		d, err := s.compile(h.F)
		if err != nil {
			return nil, err
		}
		var out CDNF
		for _, c := range d {
			e, err := s.eliminate(c, h.Var)
			if err != nil {
				return nil, err
			}
			out = append(out, e...)
		}
		return simplifyDNF(out), nil
	case All:
		// ∀y φ ≡ ¬∃y ¬φ, with DNF-level negation.
		d, err := s.compile(h.F)
		if err != nil {
			return nil, err
		}
		nd := negateDNF(d)
		var ex CDNF
		for _, c := range nd {
			e, err := s.eliminate(c, h.Var)
			if err != nil {
				return nil, err
			}
			ex = append(ex, e...)
		}
		return negateDNF(simplifyDNF(ex)), nil
	}
	return nil, fmt.Errorf("fodeg: compile: unknown node %T", f)
}

// distribute computes the conjunction of two DNFs, simplifying the result.
func distribute(a, b CDNF) CDNF {
	var out CDNF
	for _, ca := range a {
		for _, cb := range b {
			c := make(CConj, 0, len(ca)+len(cb))
			c = append(c, ca...)
			c = append(c, cb...)
			out = append(out, c)
		}
	}
	return simplifyDNF(out)
}

// negateDNF negates a DNF and redistributes into DNF.
func negateDNF(d CDNF) CDNF {
	out := CDNF{{}} // true
	for _, c := range d {
		var lits CDNF
		for _, l := range c {
			nl := l
			nl.Neg = !l.Neg
			lits = append(lits, CConj{nl})
		}
		// ¬conj = disjunction of negated literals; and with accumulator.
		out = distribute(out, lits)
	}
	return out
}

func litKey(l Lit) string {
	return fmt.Sprint(l.Neg, l.Pred, l.T1.Var, l.T1.Path, l.T2.Var, l.T2.Path)
}

// simplifyDNF deduplicates literals inside conjunctions, drops conjunctions
// containing complementary literal pairs, deduplicates conjunctions, and
// removes subsumed conjunctions (a conjunction whose literal set contains
// another's is implied by it). Keeping DNFs reduced is what makes the
// double-negation handling of universal quantifiers feasible.
func simplifyDNF(d CDNF) CDNF {
	var reduced []CConj
	var keysets []map[string]bool
	for _, c := range d {
		keys := map[string]bool{}
		var cc CConj
		contradictory := false
		for _, l := range c {
			k := litKey(l)
			if keys[k] {
				continue
			}
			nl := l
			nl.Neg = !l.Neg
			if keys[litKey(nl)] {
				contradictory = true
				break
			}
			keys[k] = true
			cc = append(cc, l)
		}
		if contradictory {
			continue
		}
		reduced = append(reduced, cc)
		keysets = append(keysets, keys)
	}
	// Subsumption: drop conj i if some conj j (kept) has keys ⊆ keys(i).
	var out CDNF
	var outKeys []map[string]bool
	for i, c := range reduced {
		sub := false
		for j := range reduced {
			if i == j {
				continue
			}
			if len(keysets[j]) > len(keysets[i]) {
				continue
			}
			if len(keysets[j]) == len(keysets[i]) && j > i {
				continue // identical sets: keep the first
			}
			all := true
			for k := range keysets[j] {
				if !keysets[i][k] {
					all = false
					break
				}
			}
			if all {
				sub = true
				break
			}
		}
		if !sub {
			out = append(out, c)
			outKeys = append(outKeys, keysets[i])
		}
	}
	_ = outKeys
	return out
}

// eliminate computes ∃v c as a DNF over the remaining variables.
func (s *Structure) eliminate(c CConj, v string) (CDNF, error) {
	var rest CConj
	var vlits []Lit
	for _, l := range c {
		if l.mentions(v) {
			vlits = append(vlits, l)
		} else {
			rest = append(rest, l)
		}
	}
	if len(vlits) == 0 {
		// v unconstrained: ∃v true over a nonempty domain.
		if s.N == 0 {
			return nil, nil
		}
		return CDNF{rest}, nil
	}
	// 1. Same-variable (dis)equalities t(v) = s(v) become derived unary
	// predicates on v.
	var unary []Lit // predicate literals on v (identity term after pullback)
	var links []Lit // literals connecting v to another variable
	for _, l := range vlits {
		switch {
		case l.Pred >= 0:
			// P(t(v)): pull back to a bitmap on v.
			id := s.internBitmap(s.PullbackPred(l.T1.Path, l.Pred))
			unary = append(unary, Lit{Neg: l.Neg, Pred: id, T1: V(v)})
		case l.T1.Var == v && l.T2.Var == v:
			id := s.internBitmap(s.EqBitmap(l.T1.Path, l.T2.Path, true))
			unary = append(unary, Lit{Neg: l.Neg, Pred: id, T1: V(v)})
		default:
			// Normalize so that T1 is the v-side.
			if l.T2.Var == v {
				l.T1, l.T2 = l.T2, l.T1
			}
			links = append(links, l)
		}
	}
	// 2. A positive link t(v) = u(x) pins v = t̄(u(x)): substitute.
	for li, l := range links {
		if l.Neg {
			continue
		}
		// v = invPath(T1.Path) ∘ T2
		pin := Term{Var: l.T2.Var, Path: append(append([]int(nil), l.T2.Path...), s.InversePath(l.T1.Path)...)}
		out := rest
		// Definedness of the pin (implies the original equality).
		out = append(out, Lit{Pred: -1, T1: pin, T2: pin})
		for _, u := range unary {
			// u is Pred(id, v) possibly negated → Pred(id, pin-path).
			out = append(out, Lit{Neg: u.Neg, Pred: u.Pred, T1: Term{Var: pin.Var, Path: append(append([]int(nil), pin.Path...), u.T1.Path...)}})
		}
		for lj, m := range links {
			if lj == li {
				continue
			}
			// m: t'(v) ◇ u'(x'): substitute v.
			t := Term{Var: pin.Var, Path: append(append([]int(nil), pin.Path...), m.T1.Path...)}
			out = append(out, Lit{Neg: m.Neg, Pred: -1, T1: t, T2: m.T2})
		}
		return CDNF{out}, nil
	}
	// 3. Only negative links remain. By injectivity,
	// ¬(t(v) = u(x)) ⟺ v ≠ t̄(u(x)) where an undefined exception term
	// excludes nothing (a v with t(v) undefined can never equal t̄(u(x)),
	// which has t defined). So the conjunct is ψ(v) ∧ ⋀ v ≠ τ_i(x̄), the
	// normal form of Example 3.3, with no case analysis.
	var exceptions []Term
	seenExc := map[string]bool{}
	for _, l := range links {
		exc := Term{Var: l.T2.Var, Path: append(append([]int(nil), l.T2.Path...), s.InversePath(l.T1.Path)...)}
		key := fmt.Sprint(exc.Var, exc.Path)
		if !seenExc[key] {
			seenExc[key] = true
			exceptions = append(exceptions, exc)
		}
	}
	// ψ = conjunction of all unary conditions on v.
	var maps [][]bool
	var neg []bool
	for _, u := range unary {
		maps = append(maps, s.preds[u.Pred])
		neg = append(neg, u.Neg)
	}
	var psi []bool
	if len(maps) == 0 {
		psi = make([]bool, s.N)
		for i := range psi {
			psi[i] = true
		}
	} else {
		psi = AndBitmaps(s.N, maps, neg)
	}
	psiID := s.internBitmap(psi)
	psiCount := s.counts[psiID]
	k := len(exceptions)
	switch {
	case psiCount == 0:
		return nil, nil // no candidate for v
	case psiCount > k:
		// The paper's ∃^{h+1}ψ threshold test, resolved against the data:
		// more than k candidates can never all be excluded by k exception
		// values, so ∃v holds unconditionally.
		return CDNF{rest}, nil
	default:
		// ψ has at most k elements a_1..a_m: ∃v ⟺ ⋁_j "a_j avoids every
		// exception term", where "τ_i avoids a_j" is ¬Single_{a_j}(τ_i).
		var out CDNF
		for a := 0; a < s.N; a++ {
			if !psi[a] {
				continue
			}
			single := make([]bool, s.N)
			single[a] = true
			sid := s.internBitmap(single)
			c := append([]Lit(nil), rest...)
			for _, exc := range exceptions {
				c = append(c, Lit{Neg: true, Pred: sid, T1: exc})
			}
			out = append(out, c)
		}
		return out, nil
	}
}

// ModelCheck decides a sentence: compile and look for a satisfied conj.
// All conjunctions of the compiled sentence are variable-free.
func (s *Structure) ModelCheck(f Formula) (bool, error) {
	if vs := FreeVarsFOF(f); len(vs) > 0 {
		return false, fmt.Errorf("fodeg: ModelCheck on open formula (free: %v)", vs)
	}
	d, err := s.Compile(f)
	if err != nil {
		return false, err
	}
	for _, c := range d {
		if len(c) == 0 {
			return true, nil
		}
		// Defensive: a sentence should compile to constant conjunctions.
		sat := true
		for _, l := range c {
			if l.T1.Var != "" || (l.Pred < 0 && l.T2.Var != "") {
				return false, fmt.Errorf("fodeg: residual variable in sentence compilation")
			}
			if !s.EvalLit(l, nil) {
				sat = false
				break
			}
		}
		if sat {
			return true, nil
		}
	}
	return false, nil
}
