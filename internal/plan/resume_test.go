package plan_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/qgen"
)

// collidingHash maps every key onto two fingerprints, so each index probe
// walks a chain of keys that share one.
func collidingHash(tu database.Tuple, cols []int) uint64 {
	if len(cols) == 0 {
		return 0
	}
	return uint64(tu[cols[0]]) & 1
}

// resumeInstances yields the seed's instances on the two routes with
// positions: a linear-delay query (the first acyclic query qgen draws from
// the seed whose head is neither empty nor free-connex) and an ACQ≠ query (the free-connex instance with x ≠ y on its
// first two head variables and, when it has one, a head variable ≠ a
// quantified one, which the checks resolve through witness rows).
func resumeInstances(seed int64) []struct {
	q  *logic.CQ
	db *database.Database
} {
	rng := rand.New(rand.NewSource(seed))
	cfg := qgen.Default()
	var lq *logic.CQ
	for try := 0; try < 64; try++ {
		lq = qgen.AcyclicCQ(rng, cfg)
		if len(lq.Head) > 0 && !lq.IsFreeConnex() {
			break
		}
	}
	ldb := qgen.DatabaseFor(rng, cfg, lq)

	nq, ndb := qgen.Instance(seed)
	if len(nq.Head) >= 2 {
		nq.Comparisons = append(nq.Comparisons, logic.Comparison{Op: logic.NEQ, L: logic.V(nq.Head[0]), R: logic.V(nq.Head[1])})
	}
	if len(nq.Head) >= 1 {
		head := map[string]bool{}
		for _, v := range nq.Head {
			head[v] = true
		}
	quantified:
		for _, a := range nq.Atoms {
			for _, v := range a.Vars() {
				if !head[v] {
					nq.Comparisons = append(nq.Comparisons, logic.Comparison{Op: logic.NEQ, L: logic.V(nq.Head[0]), R: logic.V(v)})
					break quantified
				}
			}
		}
	}
	return []struct {
		q  *logic.CQ
		db *database.Database
	}{{lq, ldb}, {nq, ndb}}
}

// drainWithPos drains e, returning its answers, after each the position
// AppendPos reports, and after each the steps c has counted (cum[0] is the
// count before the first answer).
func drainWithPos(t *testing.T, e *plan.CtxEnumerator, c *delay.Counter) (rows []database.Tuple, pos [][]byte, cum []int64) {
	t.Helper()
	cum = append(cum, c.Steps())
	for {
		tp, ok := e.Next()
		if !ok {
			return rows, pos, cum
		}
		p, ok := e.AppendPos(nil)
		if !ok {
			t.Fatalf("no position after answer %d", len(rows))
		}
		rows = append(rows, tp.Clone())
		pos = append(pos, p)
		cum = append(cum, c.Steps())
	}
}

// TestDifferentialResume: on the linear-delay and ACQ≠ routes, under the
// default and a colliding index hash, a pass resumed from the position
// after answer k yields exactly the uninterrupted pass's answers from k+1
// on, in the same order and with the same positions — for every k, the
// empty prefix (an empty pos) and the full one included — on the statement
// that handed the position out and on a second binding of the same plan.
// The uninterrupted pass is the oracle's answer set, and on the
// linear-delay route it is in strictly ascending lexicographic order.
//
// The bound: a page of 1 or 4 answers resumed at any page offset costs at
// most twice the first page's counted steps more than the uninterrupted
// pass spends on the same answers. Resuming by answer offset would add the
// steps of every answer before the page instead.
func TestDifferentialResume(t *testing.T) {
	for _, h := range []struct {
		name string
		hash func(database.Tuple, []int) uint64
	}{{"default", nil}, {"collisions", collidingHash}} {
		t.Run(h.name, func(t *testing.T) {
			if h.hash != nil {
				defer database.SetIndexHashForTesting(h.hash)()
			}
			tested := map[plan.Engine]int{}
			for _, seed := range diffSeeds() {
				for _, in := range resumeInstances(seed) {
					q, db := in.q, in.db
					p, err := plan.Compile(q)
					if err != nil {
						failInstance(t, seed, q, db, "Compile: %v", err)
					}
					if p.PosLen() == 0 {
						continue
					}
					tested[p.EnumerateEngine]++
					checkResume(t, seed, q, db, p)
				}
			}
			if tested[plan.EngineLinearDelay] < 50 || tested[plan.EngineNeqEnum] < 100 {
				t.Fatalf("too few instances on the routes with positions: %v", tested)
			}
		})
	}
}

func checkResume(t *testing.T, seed int64, q *logic.CQ, db *database.Database, p *plan.Plan) {
	t.Helper()
	ctx := context.Background()
	want, err := oracle.Eval(db, q)
	if err != nil {
		failInstance(t, seed, q, db, "oracle: %v", err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		failInstance(t, seed, q, db, "Bind: %v", err)
	}
	other, err := p.Bind(db)
	if err != nil {
		failInstance(t, seed, q, db, "second Bind: %v", err)
	}
	c := &delay.Counter{}
	e, err := pr.EnumerateCtx(ctx, c)
	if err != nil {
		failInstance(t, seed, q, db, "EnumerateCtx: %v", err)
	}
	rows, pos, cum := drainWithPos(t, e, c)
	if !sameAnswers(rows, want) {
		failInstance(t, seed, q, db, "%s: %v != oracle %v", p.EnumerateEngine, rows, want)
	}
	if p.EnumerateEngine == plan.EngineLinearDelay {
		for i := 1; i < len(rows); i++ {
			if rows[i-1].Compare(rows[i]) >= 0 {
				failInstance(t, seed, q, db, "linear-delay answers %v and %v out of lexicographic order", rows[i-1], rows[i])
			}
		}
	}
	for _, p := range pos {
		if len(p) != pr.Plan().PosLen() {
			failInstance(t, seed, q, db, "position %x is not PosLen = %d bytes", p, pr.Plan().PosLen())
		}
	}
	for k := 0; k <= len(rows); k++ {
		var from []byte
		if k > 0 {
			from = pos[k-1]
		}
		on := pr
		if k%2 == 1 {
			on = other
		}
		r, err := on.EnumerateFrom(ctx, nil, from)
		if err != nil {
			failInstance(t, seed, q, db, "EnumerateFrom after answer %d: %v", k, err)
		}
		if k > 0 {
			if at, ok := r.AppendPos(nil); !ok || !bytes.Equal(at, from) {
				failInstance(t, seed, q, db, "resumed pass stands at %x (%v) before its first answer, want %x", at, ok, from)
			}
		}
		rest, restPos, _ := drainWithPos(t, r, nil)
		if !sameSequence(rest, rows[k:]) {
			failInstance(t, seed, q, db, "resumed after answer %d: %v, want the suffix %v", k, rest, rows[k:])
		}
		for j := range restPos {
			if !bytes.Equal(restPos[j], pos[k+j]) {
				failInstance(t, seed, q, db, "resumed after answer %d: position %x after answer %d, the pass had %x", k, restPos[j], k+j+1, pos[k+j])
			}
		}
	}
	if _, err := pr.EnumerateFrom(ctx, nil, make([]byte, p.PosLen()+8)); err != plan.ErrBadPosition {
		failInstance(t, seed, q, db, "a position of the wrong width: %v, want ErrBadPosition", err)
	}
	for _, limit := range []int{1, 4} {
		first, _ := pageSteps(t, pr, nil, limit)
		for off := limit; off < len(rows); off += limit {
			steps, _ := pageSteps(t, pr, pos[off-1], limit)
			if own := cum[min(off+limit, len(rows))] - cum[off]; steps-own > 2*first {
				failInstance(t, seed, q, db, "a page of %d resumed after answer %d costs %d steps, the pass spends %d on it: more than twice the first page's %d over it",
					limit, off, steps, own, first)
			}
		}
	}
}

// pageSteps counts the steps a page of up to limit answers costs: opening
// the pass (after a position, or at the start for nil) and draining it.
func pageSteps(t *testing.T, pr *plan.Prepared, from []byte, limit int) (int64, []database.Tuple) {
	t.Helper()
	c := &delay.Counter{}
	e, err := pr.EnumerateFrom(context.Background(), c, from)
	if err != nil {
		t.Fatal(err)
	}
	var rows []database.Tuple
	for len(rows) < limit {
		tp, ok := e.Next()
		if !ok {
			break
		}
		rows = append(rows, tp.Clone())
	}
	return c.Steps(), rows
}

// TestResumeCostFlat is the bound behind position cursors: on both
// routes, a page resumed from a position costs at most twice the counted
// steps of the first page, at every page offset of a walk — where
// resuming by answer offset (EnumerateAt) grows with the offset. The
// instances are the shapes a deep walk serves: a two-hop join that is not
// free-connex and an edge relation with a label filter and x ≠ y, each
// over a few hundred rows.
func TestResumeCostFlat(t *testing.T) {
	db := database.NewDatabase()
	e := database.NewRelation("E", 2)
	l := database.NewRelation("L", 1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		e.InsertValues(database.Value(rng.Intn(60)), database.Value(rng.Intn(60)))
	}
	for v := 0; v < 60; v += 2 {
		l.InsertValues(database.Value(v))
	}
	e.Dedup()
	db.AddRelation(e)
	db.AddRelation(l)
	const limit = 16
	for _, src := range []string{
		"Q(x,z) :- E(x,y), E(y,z).",
		"Q(x,y) :- E(x,y), L(y), x != y.",
	} {
		t.Run(src, func(t *testing.T) {
			p, err := plan.Compile(mustCQ(t, src))
			if err != nil {
				t.Fatal(err)
			}
			if p.PosLen() == 0 {
				t.Fatalf("%s routes to %s, which has no positions", src, p.EnumerateEngine)
			}
			pr, err := p.Bind(db)
			if err != nil {
				t.Fatal(err)
			}
			ce, err := pr.EnumerateCtx(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, pos, _ := drainWithPos(t, ce, nil)
			if len(rows) < 8*limit {
				t.Fatalf("only %d answers: the walk is too short to show a cliff", len(rows))
			}
			first, _ := pageSteps(t, pr, nil, limit)
			var skipLast int64
			for off := limit; off < len(rows); off += limit {
				steps, page := pageSteps(t, pr, pos[off-1], limit)
				if !sameSequence(page, rows[off:min(off+limit, len(rows))]) {
					t.Fatalf("page at %d: %v, want %v", off, page, rows[off:min(off+limit, len(rows))])
				}
				if steps > 2*first {
					t.Fatalf("page at %d resumed in %d steps, more than twice the first page's %d", off, steps, first)
				}
				c := &delay.Counter{}
				at, err := pr.EnumerateAt(context.Background(), c, uint64(off))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < limit; i++ {
					at.Next()
				}
				skipLast = c.Steps()
			}
			if skipLast <= 4*first {
				t.Fatalf("the last page by offset cost %d steps against the first page's %d: the instance shows no cliff to flatten", skipLast, first)
			}
			t.Logf("%s: %d answers, first page %d steps, last page by offset %d", src, len(rows), first, skipLast)
		})
	}
}

// TestEnumerateFromStale: EnumerateFrom refuses a statement whose database
// moved, like every other execution method.
func TestEnumerateFromStale(t *testing.T) {
	db := chainDB(8)
	p, err := plan.Compile(mustCQ(t, "Q(x,z) :- A(x,y), B(y,z)."))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := pr.EnumerateCtx(context.Background(), nil)
	e.Next()
	pos, ok := e.AppendPos(nil)
	if !ok {
		t.Fatalf("%s pass has no position", p.EnumerateEngine)
	}
	db.Relation("A").Insert(database.Tuple{100, 101})
	if _, err := pr.EnumerateFrom(context.Background(), nil, pos); err != plan.ErrStalePlan {
		t.Fatalf("EnumerateFrom on a stale statement: %v, want %v", err, plan.ErrStalePlan)
	}
}
