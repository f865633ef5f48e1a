package plan_test

import (
	"bytes"
	"context"
	"encoding/binary"
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

// resumeInstance is one query of a seed's resume instances: a conjunctive
// query, or a union when u is set.
type resumeInstance struct {
	q  *logic.CQ
	u  *logic.UCQ
	db *database.Database
}

// String names the query for failInstance.
func (in resumeInstance) String() string {
	if in.u != nil {
		return in.u.String()
	}
	return in.q.String()
}

// resumeInstances yields the seed's instances on every route:
//   - linear delay: the first acyclic query qgen draws from the seed whose
//     head is neither empty nor free-connex;
//   - constant delay: the seed's free-connex instance;
//   - ACQ≠: that instance with x ≠ y on its first two head variables and,
//     when it has one, a head variable ≠ a quantified one, which the checks
//     resolve through witness rows;
//   - backtracking: that instance with its first variable ≤ its last;
//   - union: the union qgen draws from the seed.
func resumeInstances(seed int64) []resumeInstance {
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

	fq, fdb := qgen.Instance(seed)

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

	bq, bdb := qgen.Instance(seed)
	vars := bq.Vars()
	bq.Comparisons = append(bq.Comparisons, logic.Comparison{Op: logic.LE, L: logic.V(vars[0]), R: logic.V(vars[len(vars)-1])})

	urng := rand.New(rand.NewSource(seed))
	u := qgen.UCQ(urng, cfg)
	udb := qgen.DatabaseForUCQ(urng, cfg, u)
	return []resumeInstance{{q: lq, db: ldb}, {q: fq, db: fdb}, {q: nq, db: ndb}, {q: bq, db: bdb}, {u: u, db: udb}}
}

// offsetPos is the position of the routes without one of their own: the
// answer offset, 8 bytes big-endian.
func offsetPos(i uint64) []byte { return binary.BigEndian.AppendUint64(nil, i) }

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
		p := e.AppendPos(nil)
		if len(p) == 0 {
			t.Fatalf("no position after answer %d", len(rows))
		}
		rows = append(rows, tp.Clone())
		pos = append(pos, p)
		cum = append(cum, c.Steps())
	}
}

// TestDifferentialResume: on every route, under the default and a
// colliding index hash, a pass resumed from the position after answer k
// yields exactly the uninterrupted pass's answers from k+1 on, in the same
// order and with the same positions — for every k, the empty prefix (an
// empty pos) and the full one included — on the statement that handed the
// position out and on a second binding of the same plan, which on a union
// has no drained pass to reslice until its first resumed pass drains. The
// uninterrupted pass is the oracle's answer set, and on the linear-delay
// route it is in strictly ascending lexicographic order.
//
// The bound: a page of 1 or 4 answers resumed at any page offset costs at
// most twice the first page's counted steps more than the uninterrupted
// pass spends on the same answers. Resuming by replaying the answers before
// the page would add the steps of every one of them instead.
func TestDifferentialResume(t *testing.T) {
	for _, h := range []struct {
		name string
		hash func(database.Tuple, []int) uint64
	}{{"default", nil}, {"collisions", collidingHash}} {
		t.Run(h.name, func(t *testing.T) {
			if h.hash != nil {
				defer database.SetIndexHashForTesting(h.hash)()
			}
			tested := map[string]int{}
			for _, seed := range diffSeeds() {
				for _, in := range resumeInstances(seed) {
					var p *plan.Plan
					var err error
					if in.u != nil {
						p, err = plan.CompileUCQ(in.u)
					} else {
						p, err = plan.Compile(in.q)
					}
					if err != nil {
						failInstance(t, seed, in, in.db, "Compile: %v", err)
					}
					tested[route(p)]++
					checkResume(t, seed, in, p)
				}
			}
			for _, r := range []string{string(plan.EngineLinearDelay), string(plan.EngineConstantDelay), string(plan.EngineNeqEnum), string(plan.EngineBacktrack), "union"} {
				if tested[r] < 200 {
					t.Fatalf("too few instances on the %s route: %v", r, tested)
				}
			}
			t.Logf("instances per route: %v", tested)
		})
	}
}

// route names the plan's enumeration route.
func route(p *plan.Plan) string {
	if p.UCQ != nil {
		return "union"
	}
	return string(p.EnumerateEngine)
}

func checkResume(t *testing.T, seed int64, in resumeInstance, p *plan.Plan) {
	t.Helper()
	ctx := context.Background()
	db := in.db
	var want []database.Tuple
	var err error
	if in.u != nil {
		want, err = oracle.EvalUCQ(db, in.u)
	} else {
		want, err = oracle.Eval(db, in.q)
	}
	if err != nil {
		failInstance(t, seed, in, db, "oracle: %v", err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		failInstance(t, seed, in, db, "Bind: %v", err)
	}
	other, err := p.Bind(db)
	if err != nil {
		failInstance(t, seed, in, db, "second Bind: %v", err)
	}
	c := &delay.Counter{}
	e, err := pr.EnumerateCtx(ctx, c)
	if err != nil {
		failInstance(t, seed, in, db, "EnumerateCtx: %v", err)
	}
	rows, pos, cum := drainWithPos(t, e, c)
	if !sameAnswers(rows, want) {
		failInstance(t, seed, in, db, "%s: %v != oracle %v", route(p), rows, want)
	}
	if p.EnumerateEngine == plan.EngineLinearDelay && p.UCQ == nil {
		for i := 1; i < len(rows); i++ {
			if rows[i-1].Compare(rows[i]) >= 0 {
				failInstance(t, seed, in, db, "linear-delay answers %v and %v out of lexicographic order", rows[i-1], rows[i])
			}
		}
	}
	for _, p := range pos {
		if len(p) != pr.Plan().PosLen() {
			failInstance(t, seed, in, db, "position %x is not PosLen = %d bytes", p, pr.Plan().PosLen())
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
			failInstance(t, seed, in, db, "EnumerateFrom after answer %d: %v", k, err)
		}
		if k > 0 {
			if at := r.AppendPos(nil); !bytes.Equal(at, from) {
				failInstance(t, seed, in, db, "resumed pass stands at %x before its first answer, want %x", at, from)
			}
		}
		rest, restPos, _ := drainWithPos(t, r, nil)
		if !sameSequence(rest, rows[k:]) {
			failInstance(t, seed, in, db, "resumed after answer %d: %v, want the suffix %v", k, rest, rows[k:])
		}
		for j := range restPos {
			if !bytes.Equal(restPos[j], pos[k+j]) {
				failInstance(t, seed, in, db, "resumed after answer %d: position %x after answer %d, the pass had %x", k, restPos[j], k+j+1, pos[k+j])
			}
		}
	}
	if _, err := pr.EnumerateFrom(ctx, nil, make([]byte, p.PosLen()+8)); err != plan.ErrBadPosition {
		failInstance(t, seed, in, db, "a position of the wrong width: %v, want ErrBadPosition", err)
	}
	for _, limit := range []int{1, 4} {
		first, _ := pageSteps(t, pr, nil, limit)
		for off := limit; off < len(rows); off += limit {
			steps, _ := pageSteps(t, pr, pos[off-1], limit)
			if own := cum[min(off+limit, len(rows))] - cum[off]; steps-own > 2*first {
				failInstance(t, seed, in, db, "a page of %d resumed after answer %d costs %d steps, the pass spends %d on it: more than twice the first page's %d over it",
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

// TestResumeCostFlat is the bound behind position cursors: on the
// linear-delay and ACQ≠ routes, a page resumed from a position costs at
// most twice the counted steps of the first page, at every page offset of
// a walk, where replaying the answers before the page would grow with the
// offset. The instances are the shapes a deep walk serves: a two-hop join that is not
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
			if p.EnumerateEngine != plan.EngineLinearDelay && p.EnumerateEngine != plan.EngineNeqEnum {
				t.Fatalf("%s routes to %s, not to a route that resumes by re-descent or odometer seek", src, p.EnumerateEngine)
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
			for off := limit; off < len(rows); off += limit {
				steps, page := pageSteps(t, pr, pos[off-1], limit)
				if !sameSequence(page, rows[off:min(off+limit, len(rows))]) {
					t.Fatalf("page at %d: %v, want %v", off, page, rows[off:min(off+limit, len(rows))])
				}
				if steps > 2*first {
					t.Fatalf("page at %d resumed in %d steps, more than twice the first page's %d", off, steps, first)
				}
			}
			t.Logf("%s: %d answers, first page %d steps", src, len(rows), first)
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
	pos := e.AppendPos(nil)
	if len(pos) == 0 {
		t.Fatalf("%s pass has no position", p.EnumerateEngine)
	}
	db.Relation("A").Insert(database.Tuple{100, 101})
	if _, err := pr.EnumerateFrom(context.Background(), nil, pos); err != plan.ErrStalePlan {
		t.Fatalf("EnumerateFrom on a stale statement: %v, want %v", err, plan.ErrStalePlan)
	}
}
