package cq

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/qgen"
)

// collisionHash maps every key onto two fingerprints, so each index probe
// resolves real collisions along shared probe chains.
func collisionHash(tu database.Tuple, cols []int) uint64 {
	if len(cols) == 0 {
		return 0
	}
	return uint64(tu[cols[0]]) & 1
}

// trace is one pass over a core: the answers in order, the counted steps
// of the whole drain, and for every offset i the steps a Seek(i) and one
// Next cost together with the answer they yield.
type trace struct {
	rows      []database.Tuple
	steps     int64
	seekSteps []int64
	seekRows  []database.Tuple
}

func traceCore(t *testing.T, label string, core *OdometerCore) trace {
	t.Helper()
	c := &delay.Counter{}
	od := core.Cursor(c)
	var tr trace
	for {
		tp, ok := od.Next()
		if !ok {
			break
		}
		tr.rows = append(tr.rows, tp.Clone())
	}
	tr.steps = c.Steps()
	w, err := NewSpineWeights(core, nil)
	if err != nil {
		t.Fatalf("%s: NewSpineWeights: %v", label, err)
	}
	for i := range tr.rows {
		c := &delay.Counter{}
		od := core.Cursor(c)
		if !od.Seek(w, uint64(i)) {
			t.Fatalf("%s: Seek(%d) refused below %d answers", label, i, len(tr.rows))
		}
		tp, ok := od.Next()
		if !ok {
			t.Fatalf("%s: Seek(%d) then Next produced nothing", label, i)
		}
		tr.seekRows = append(tr.seekRows, tp.Clone())
		tr.seekSteps = append(tr.seekSteps, c.Steps())
	}
	return tr
}

// sameTrace reports the first difference between two traces, or "".
func sameTrace(a, b trace) string {
	if len(a.rows) != len(b.rows) {
		return fmt.Sprintf("%d answers vs %d", len(a.rows), len(b.rows))
	}
	for i := range a.rows {
		if !a.rows[i].Equal(b.rows[i]) {
			return fmt.Sprintf("answer %d: %v vs %v", i, a.rows[i], b.rows[i])
		}
		if !a.seekRows[i].Equal(b.seekRows[i]) || a.seekSteps[i] != b.seekSteps[i] {
			return fmt.Sprintf("Seek(%d): %v in %d steps vs %v in %d", i, a.seekRows[i], a.seekSteps[i], b.seekRows[i], b.seekSteps[i])
		}
	}
	if a.steps != b.steps {
		return fmt.Sprintf("drain ticked %d steps vs %d", a.steps, b.steps)
	}
	return ""
}

// referenceOrder enumerates q's answers in the order the odometer defines,
// by brute force: the free parts full-reduced with plain semijoins, and
// each bucket scanned in its reduced part's row order, the preorder of the
// parts' join tree read as an odometer (the last position moving fastest).
func referenceOrder(t *testing.T, db *database.Database, q *logic.CQ) []database.Tuple {
	t.Helper()
	parts, err := BuildFreeParts(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	schemas := make([][]string, len(parts))
	for i, p := range parts {
		schemas[i] = p.Schema
	}
	jt, err := partsTree(schemas)
	if err != nil {
		t.Fatal(err)
	}
	ch, post := jt.Children(), postorder(jt)
	for _, i := range post {
		for _, c := range ch[i] {
			parts[i] = semijoin(parts[i], parts[c])
		}
	}
	for k := len(post) - 1; k >= 0; k-- {
		for _, c := range ch[post[k]] {
			parts[c] = semijoin(parts[c], parts[post[k]])
		}
	}
	var order []int
	var pre func(i int)
	pre = func(i int) {
		order = append(order, i)
		for _, c := range ch[i] {
			pre(c)
		}
	}
	pre(jt.Root())
	cur := make(map[int]database.Tuple, len(order))
	var out []database.Tuple
	var walk func(k int)
	walk = func(k int) {
		if k == len(order) {
			ans := make(database.Tuple, len(q.Head))
			for i, v := range q.Head {
				for _, node := range order {
					if c := parts[node].col(v); c >= 0 {
						ans[i] = cur[node][c]
						break
					}
				}
			}
			out = append(out, ans)
			return
		}
		node := order[k]
		for _, tp := range parts[node].R.Tuples {
			if p := jt.Parent[node]; p >= 0 {
				nc, pc := commonCols(parts[node], parts[p])
				if !slices.EqualFunc(nc, pc, func(a, b int) bool { return tp[a] == cur[p][b] }) {
					continue
				}
			}
			cur[node] = tp
			walk(k + 1)
		}
	}
	walk(0)
	return out
}

// TestLinksMatchLookups: on every seeded instance, a core whose bucket
// switches read the links enumerates in the reference order, and the same
// core with the links dropped — every switch an index probe, as after a
// delta patch — gives the same answer sequence, the same counted steps, and
// the same answer and steps for a Seek at every offset. Under the default
// fingerprint and under forced collisions.
func TestLinksMatchLookups(t *testing.T) {
	for _, h := range []struct {
		name string
		hash func(database.Tuple, []int) uint64
	}{{"default", nil}, {"collisions", collisionHash}} {
		t.Run(h.name, func(t *testing.T) {
			if h.hash != nil {
				defer database.SetIndexHashForTesting(h.hash)()
			}
			for _, seed := range diffSeeds() {
				q, db := qgen.Instance(seed)
				core, err := PrepareConstantDelay(db, q, nil)
				if err != nil {
					failInstance(t, seed, q, db, "PrepareConstantDelay: %v", err)
				}
				if core.links == nil {
					failInstance(t, seed, q, db, "a fresh core has no links")
				}
				label := fmt.Sprintf("seed %d (%s)", seed, q)
				linked := traceCore(t, label, core)
				if want := referenceOrder(t, db, q); fmt.Sprint(linked.rows) != fmt.Sprint(want) {
					failInstance(t, seed, q, db, "linked core enumerates %v, reference order %v", linked.rows, want)
				}
				core.DropLinks()
				if d := sameTrace(linked, traceCore(t, label, core)); d != "" {
					failInstance(t, seed, q, db, "links vs lookups: %s", d)
				}
			}
		})
	}
}
