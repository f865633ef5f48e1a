package plan

// The union route (Theorem 4.13): Decide short-circuits over the
// disjuncts and Count runs inclusion–exclusion. A pass runs the
// union-extension enumerator live and records it, or materializes each
// disjunct; once one has drained, passes reslice the answer list.

import (
	"context"
	"math/big"

	"repro/internal/counting"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/ineq"
	"repro/internal/ucq"
)

type unionRoute struct {
	Prepared
	done bool // rows holds the whole union; guarded by pr.mu
	rows []database.Tuple
}

func bindUnion(p *Plan, db *database.Database, _ *delay.Counter) *Prepared {
	r := new(unionRoute)
	return r.bind(p, db, r, false, p.UCQ.Disjuncts...)
}

// decide is true iff some disjunct decides true; later disjuncts are
// neither bound nor decided once one is (short-circuit).
func (r *unionRoute) decide(c *delay.Counter) (bool, error) {
	for _, bp := range r.plan.boolDjs {
		sub, err := bp.BindCounted(r.db, c)
		if err != nil {
			return false, err
		}
		if ok, err := sub.Decide(c); err != nil || ok {
			return ok && err == nil, err
		}
	}
	return false, nil
}

func (r *unionRoute) count(*delay.Counter) (*big.Int, error) {
	return counting.CountUCQ(r.db, r.plan.UCQ)
}

// enumerate starts a pass at answer offset pos: a live pass at the first
// answer, which EnumerateFrom steps on to pos, while no pass has drained.
func (r *unionRoute) enumerate(_ context.Context, c *delay.Counter, pos []byte) (pass, uint64, uint64, error) {
	off := offset(pos)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		p := r.plan
		if p.unionOK {
			if e, err := ucq.Enumerate(r.db, p.UCQ, unionMaxExtra, c); err == nil {
				return &recordPass{e: e, r: r}, 0, off, nil
			}
			// The extension plan failed against this database (e.g. a missing
			// base relation): fall back to materializing each disjunct.
		}
		var all []database.Tuple
		seen := map[string]bool{}
		for _, d := range p.UCQ.Disjuncts {
			res, err := ineq.EvalBacktrack(r.db, d)
			if err != nil {
				return nil, 0, 0, err
			}
			for _, t := range res {
				if k := t.FullKey(); !seen[k] {
					seen[k] = true
					all = append(all, t)
				}
			}
		}
		r.done, r.rows = true, all
	}
	return replay(r.rows, off), off, off, nil
}

func (r *unionRoute) refresh() RefreshKind {
	r.done, r.rows = false, nil
	r.pin(false, r.plan.UCQ.Disjuncts...)
	return RefreshDelta
}

// recordPass is a live union pass; the first to drain records the list.
type recordPass struct {
	e   delay.Enumerator
	rec []database.Tuple
	r   *unionRoute
}

func (p *recordPass) Next() (database.Tuple, bool) {
	t, ok := p.e.Next()
	if !ok {
		p.r.mu.Lock()
		p.r.done, p.r.rows = true, p.rec
		p.r.mu.Unlock()
		return nil, false
	}
	p.rec = append(p.rec, t.Clone())
	return t, true
}

func (*recordPass) pos(n uint64) (uint64, database.Tuple) { return n, nil }
