package plan

// The ACQ≠ route (Theorem 4.20): Bind builds the witness-set enumerator,
// whose passes filter an inner odometer's outputs, and Decide and Count
// run the plan's engines.

import (
	"context"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/ineq"
)

type neqRoute struct {
	Prepared
	prep *ineq.NeqPrep
	err  error // the build failure every pass returns
	w    spineWeights
}

func bindNeq(p *Plan, db *database.Database, c *delay.Counter) *Prepared {
	r := new(neqRoute)
	pr := r.bind(p, db, r, true, p.CQ)
	r.prep, r.err = ineq.PrepareNeq(db, p.CQ, c)
	return pr
}

// enumerate seeks the inner odometer to pos over its core's counting pass,
// or, where the count overflows a uint64, steps there polling ctx.
func (r *neqRoute) enumerate(ctx context.Context, c *delay.Counter, pos []byte) (pass, uint64, uint64, error) {
	if r.err != nil {
		return nil, 0, 0, r.err
	}
	var w *cq.SpineWeights
	if core := r.prep.Core(); core != nil && len(pos) > 0 {
		r.mu.Lock()
		w, _ = r.w.get(core, c)
		r.mu.Unlock()
	}
	return neqPass{r.prep.EnumerateFrom(ctx, c, w, offset(pos))}, 0, 0, nil
}

// refresh rebuilds: the witness sets have no incremental refresher.
func (r *neqRoute) refresh() RefreshKind {
	r.w = spineWeights{}
	if r.prep != nil {
		r.err = r.prep.Rebuild(r.db, r.plan.CQ, nil)
	} else {
		r.prep, r.err = ineq.PrepareNeq(r.db, r.plan.CQ, nil)
	}
	r.pin(true, r.plan.CQ)
	return RefreshRebind
}

// neqPass is an ACQ≠ pass; its position is the count of odometer outputs
// it has read.
type neqPass struct{ *ineq.NeqCursor }

func (p neqPass) pos(uint64) (uint64, database.Tuple) { return p.Pos(), nil }
