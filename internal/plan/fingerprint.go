package plan

import (
	"math/bits"
	"slices"

	"repro/internal/logic"
)

// The plan cache is keyed by a 64-bit structural fingerprint of the query
// AST, folded with the same wyhash-style multiply-mix as the tuple
// fingerprints in internal/database. The fold walks the structure directly
// (no String() rendering), so a cache probe allocates nothing. Collisions
// are harmless for correctness: the cache resolves them by exact
// structural comparison (equalCQ/equalUCQ).

const (
	fpSeed  = 0x9e3779b97f4a7c15
	fpMul   = 0xa0761d6478bd642f
	fpConst = 1 // tag for constant terms
	fpVar   = 2 // tag for variable terms
)

func fpMix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a^fpMul, b^fpSeed)
	return hi ^ lo
}

// fpString folds a string without allocating: the length first (so "ab"+"c"
// and "a"+"bc" differ), then 8-byte chunks.
func fpString(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	var chunk uint64
	n := 0
	for i := 0; i < len(s); i++ {
		chunk = chunk<<8 | uint64(s[i])
		if n++; n == 8 {
			h = fpMix(h, chunk)
			chunk, n = 0, 0
		}
	}
	if n > 0 {
		h = fpMix(h, chunk)
	}
	return h
}

func fpTerm(h uint64, t logic.Term) uint64 {
	if t.IsConst {
		return fpMix(fpMix(h, fpConst), uint64(t.Const))
	}
	return fpString(fpMix(h, fpVar), t.Var)
}

func fpAtoms(h uint64, atoms []logic.Atom) uint64 {
	h = fpMix(h, uint64(len(atoms)))
	for _, a := range atoms {
		h = fpString(h, a.Pred)
		h = fpMix(h, uint64(len(a.Args)))
		for _, t := range a.Args {
			h = fpTerm(h, t)
		}
	}
	return h
}

// FingerprintCQ folds the full structure of q — name, head, atoms, negated
// atoms, comparisons — into 64 bits, allocation-free.
func FingerprintCQ(q *logic.CQ) uint64 {
	h := fpString(fpSeed, q.Name)
	h = fpMix(h, uint64(len(q.Head)))
	for _, v := range q.Head {
		h = fpString(h, v)
	}
	h = fpAtoms(h, q.Atoms)
	h = fpAtoms(h, q.NegAtoms)
	h = fpMix(h, uint64(len(q.Comparisons)))
	for _, c := range q.Comparisons {
		h = fpMix(h, uint64(c.Op))
		h = fpTerm(h, c.L)
		h = fpTerm(h, c.R)
	}
	return h
}

// FingerprintUCQ folds a union as its name plus the disjunct fingerprints.
func FingerprintUCQ(u *logic.UCQ) uint64 {
	h := fpString(fpSeed^0x5bf03635, u.Name)
	h = fpMix(h, uint64(len(u.Disjuncts)))
	for _, d := range u.Disjuncts {
		h = fpMix(h, FingerprintCQ(d))
	}
	return h
}

func equalTerm(a, b logic.Term) bool {
	if a.IsConst != b.IsConst {
		return false
	}
	if a.IsConst {
		return a.Const == b.Const
	}
	return a.Var == b.Var
}

func equalAtom(a, b logic.Atom) bool {
	return a.Pred == b.Pred && slices.EqualFunc(a.Args, b.Args, equalTerm)
}

func equalComparison(a, b logic.Comparison) bool {
	return a.Op == b.Op && equalTerm(a.L, b.L) && equalTerm(a.R, b.R)
}

// equalCQ is exact structural equality, the collision resolver behind the
// fingerprint. Allocation-free.
func equalCQ(a, b *logic.CQ) bool {
	return a == b || a.Name == b.Name && slices.Equal(a.Head, b.Head) &&
		slices.EqualFunc(a.Atoms, b.Atoms, equalAtom) &&
		slices.EqualFunc(a.NegAtoms, b.NegAtoms, equalAtom) &&
		slices.EqualFunc(a.Comparisons, b.Comparisons, equalComparison)
}

func equalUCQ(a, b *logic.UCQ) bool {
	return a == b || a.Name == b.Name && slices.EqualFunc(a.Disjuncts, b.Disjuncts, equalCQ)
}
