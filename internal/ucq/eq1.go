package ucq

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// Eq1Queries returns the union of Equation 1 of the paper:
//
//	φ1(x,y,w) = R1(x,z) ∧ R2(z,y) ∧ R3(x,w)   (not free-connex)
//	φ2(x,y,w) = R1(x,y) ∧ R2(y,w)             (free-connex)
//
// φ2 provides {x,z,y} to φ1, so the union is free-connex although φ1 alone
// is not (Definition 4.12, Theorem 4.13).
func Eq1Queries() *logic.UCQ {
	return &logic.UCQ{
		Name: "Q",
		Disjuncts: []*logic.CQ{
			{
				Name: "Q",
				Head: []string{"x", "y", "w"},
				Atoms: []logic.Atom{
					logic.NewAtom("R1", "x", "z"),
					logic.NewAtom("R2", "z", "y"),
					logic.NewAtom("R3", "x", "w"),
				},
			},
			{
				Name: "Q",
				Head: []string{"x", "y", "w"},
				Atoms: []logic.Atom{
					logic.NewAtom("R1", "x", "y"),
					logic.NewAtom("R2", "y", "w"),
				},
			},
		},
	}
}

// EnumerateEq1 is the paper's interleaved constant-delay enumerator for the
// union of Equation 1, with strictly linear preprocessing: enumerate φ2(D)
// with constant delay; emit each φ2-answer (a,d,b), and — because a triple
// (a,b,c) belongs to φ1(D) exactly when some (a,d,b) ∈ φ2(D) and
// R3(a,c) — also emit (a,b,c) for every c with R3(a,c). Duplicates are
// filtered by a hash set, as permitted in Section 4.2 ("one also has to
// deal with duplicates ... which can be done").
func EnumerateEq1(db *database.Database, c *delay.Counter) (delay.Enumerator, error) {
	u := Eq1Queries()
	phi2 := u.Disjuncts[1]
	inner, err := cq.EnumerateConstantDelay(db, phi2, c)
	if err != nil {
		return nil, err
	}
	r3 := db.Relation("R3")
	if r3 == nil {
		return nil, fmt.Errorf("ucq: missing relation R3")
	}
	ispan := c.StartSpan("index-build")
	idx := r3.IndexOn([]int{0})
	ispan.End()

	seen := database.NewKeyMap(3)
	var cur database.Tuple // current φ2 answer (a,d,b)
	var bucket []int32     // row ids of R3 tuples (a,c) for the current answer
	bi := 0                // cursor into bucket
	out := make(database.Tuple, 3)

	emit := func(t database.Tuple) (database.Tuple, bool) {
		c.Tick(1)
		if n := seen.Len(); seen.Intern(t, nil) < n {
			return nil, false
		}
		return t, true
	}

	return delay.Func(func() (database.Tuple, bool) {
		for {
			// Drain derived φ1 answers of the current φ2 answer.
			for cur != nil && bi < len(bucket) {
				a, b := cur[0], cur[2]
				cc := idx.Row(bucket[bi])[1]
				bi++
				c.Tick(1)
				out[0], out[1], out[2] = a, b, cc
				if t, ok := emit(out); ok {
					return t, true
				}
			}
			// Advance to the next φ2 answer.
			t, ok := inner.Next()
			if !ok {
				return nil, false
			}
			cur = t.Clone()
			bucket = idx.Lookup(cur, []int{0})
			bi = 0
			c.Tick(1)
			if tt, ok := emit(cur); ok {
				return tt, true
			}
		}
	}), nil
}
