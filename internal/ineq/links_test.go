package ineq

import (
	"fmt"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/qgen"
)

// drainCounted drains e, returning its answers in order and the steps c
// counted meanwhile.
func drainCounted(e delay.Enumerator, c *delay.Counter) ([]database.Tuple, int64) {
	before := c.Steps()
	var rows []database.Tuple
	for {
		tp, ok := e.Next()
		if !ok {
			return rows, c.Steps() - before
		}
		rows = append(rows, tp.Clone())
	}
}

// TestNeqLinksMatchLookups: the ACQ≠ enumerator over the qgen instances,
// each with x != y added on its first two head variables, gives the same
// answer sequence and counted steps whether its odometer core reads the
// bucket links or, with them dropped, probes its indexes. Under the
// default fingerprint and under forced collisions.
func TestNeqLinksMatchLookups(t *testing.T) {
	for _, h := range []struct {
		name string
		hash func(database.Tuple, []int) uint64
	}{{"default", nil}, {"collisions", func(tu database.Tuple, cols []int) uint64 {
		if len(cols) == 0 {
			return 0
		}
		return uint64(tu[cols[0]]) & 1
	}}} {
		t.Run(h.name, func(t *testing.T) {
			if h.hash != nil {
				defer database.SetIndexHashForTesting(h.hash)()
			}
			tested := 0
			for seed := int64(0); seed < 250; seed++ {
				q, db := qgen.Instance(seed)
				if len(q.Head) < 2 {
					continue
				}
				q.Comparisons = append(q.Comparisons, logic.Comparison{Op: logic.NEQ, L: logic.V(q.Head[0]), R: logic.V(q.Head[1])})
				p, err := PrepareNeq(db, q, nil)
				if err != nil {
					t.Fatalf("seed %d (%s): PrepareNeq: %v", seed, q, err)
				}
				if p.core == nil {
					continue
				}
				tested++
				c := &delay.Counter{}
				linked, linkedSteps := drainCounted(p.Enumerate(c), c)
				p.core.DropLinks()
				probed, probedSteps := drainCounted(p.Enumerate(c), c)
				if fmt.Sprint(linked) != fmt.Sprint(probed) || linkedSteps != probedSteps {
					t.Fatalf("seed %d (%s): links give %v in %d steps, lookups %v in %d\n%s",
						seed, q, linked, linkedSteps, probed, probedSteps, qgen.FormatInstance(q, db))
				}
			}
			if tested < 100 {
				t.Fatalf("only %d of 250 seeds reached the odometer", tested)
			}
		})
	}
}
