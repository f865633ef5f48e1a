package ineq

import (
	"testing"
	"testing/quick"

	"repro/internal/database"
)

// Property (the core of Section 4.3): for every table and every forbidden
// vector, avoidance (no cover) agrees between the table and its representative set.
func TestQuickRepresentativePreservesAvoidance(t *testing.T) {
	f := func(rows [][3]uint8, vec [3]uint8, blanks uint8) bool {
		tb := Table{K: 3}
		for i, r := range rows {
			if i >= 8 {
				break
			}
			tb.Rows = append(tb.Rows, database.Tuple{
				database.Value(r[0]%4 + 1), database.Value(r[1]%4 + 1), database.Value(r[2]%4 + 1)})
		}
		rep := Table{K: 3, Rows: tb.RepresentativeSet()}
		v := database.Tuple{
			database.Value(vec[0]%4 + 1), database.Value(vec[1]%4 + 1), database.Value(vec[2]%4 + 1)}
		for b := 0; b < 3; b++ {
			if blanks&(1<<b) != 0 {
				v[b] = Blank
			}
		}
		return tb.IsCover(v) == rep.IsCover(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every minimal cover is a cover, and no minimal cover is
// strictly more general than another.
func TestQuickMinimalCoversSound(t *testing.T) {
	f := func(rows [][2]uint8) bool {
		tb := Table{K: 2}
		for i, r := range rows {
			if i >= 7 {
				break
			}
			tb.Rows = append(tb.Rows, database.Tuple{
				database.Value(r[0]%3 + 1), database.Value(r[1]%3 + 1)})
		}
		mins := tb.MinimalCovers()
		for i, c := range mins {
			if !tb.IsCover(c) {
				return false
			}
			for j, d := range mins {
				if i != j && MoreGeneral(d, c) && !d.Equal(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: a more-general cover covers everything the less general one
// does (on arbitrary tables).
func TestQuickMoreGeneralMonotone(t *testing.T) {
	f := func(rows [][2]uint8, c0, c1 uint8, blank bool) bool {
		tb := Table{K: 2}
		for i, r := range rows {
			if i >= 6 {
				break
			}
			tb.Rows = append(tb.Rows, database.Tuple{
				database.Value(r[0]%3 + 1), database.Value(r[1]%3 + 1)})
		}
		c := database.Tuple{database.Value(c0%3 + 1), database.Value(c1%3 + 1)}
		g := c.Clone()
		if blank {
			g[0] = Blank
		} else {
			g[1] = Blank
		}
		// g is more general than c by construction; if g covers, the
		// implication "c covers ⇒ ..." need not hold, but the definition
		// says: more general covers are harder to be covers. Precisely:
		// if g is a cover then nothing about c; if c is NOT a cover then g
		// (with fewer pinned slots) is not a cover either.
		if !MoreGeneral(g, c) {
			return false
		}
		if !tb.IsCover(c) && tb.IsCover(g) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
