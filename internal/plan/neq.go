package plan

// The ACQ≠ routes (Theorem 4.20): Bind builds the witness-set enumerator,
// whose passes filter an inner odometer's outputs. Where every disequality
// is local to an atom, the bound core's outputs are the answers: Decide
// reads its non-emptiness and Count its counting pass, which resumes
// share. Where a cross-atom disequality touches a quantified variable,
// Count drains a pass. Elsewhere Decide backtracks and Count runs
// inclusion–exclusion.

import (
	"context"
	"math/big"

	"repro/internal/counting"
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

// core is the bound odometer core, nil when the build failed or a
// contradictory comparison left nothing to enumerate.
func (r *neqRoute) core() *cq.OdometerCore {
	if r.err != nil {
		return nil
	}
	return r.prep.Core()
}

// decide reads the core where its outputs are the answers; else, or
// without a core, it backtracks.
func (r *neqRoute) decide(*delay.Counter) (bool, error) {
	if core := r.core(); core != nil && r.plan.DecideEngine == EngineYannakakis {
		return core.NonEmpty(), nil
	}
	return ineq.DecideBacktrack(r.db, r.plan.boolQ)
}

// count reads the core's counting pass where its outputs are the answers,
// or drains an uncounted pass where only the checks tell them; without a
// core, or with more answers than a uint64 holds, it runs CountNeq, as
// every other kind does.
func (r *neqRoute) count(*delay.Counter) (*big.Int, error) {
	if core := r.core(); core != nil {
		switch r.plan.CountEngine {
		case EngineStarSizeCount:
			if w, err := r.w.get(core, nil); err == nil {
				return new(big.Int).SetUint64(w.Total()), nil
			}
		case EngineNeqDrain:
			n := int64(0)
			for cur := r.prep.Enumerate(nil); ; n++ {
				if _, ok := cur.Next(); !ok {
					return big.NewInt(n), nil
				}
			}
		}
	}
	return counting.CountNeq(r.db, r.plan.CQ)
}

// enumerate seeks the inner odometer to pos over its core's counting pass,
// or, where the count overflows a uint64, steps there polling ctx.
func (r *neqRoute) enumerate(ctx context.Context, c *delay.Counter, pos []byte) (pass, uint64, uint64, error) {
	if r.err != nil {
		return nil, 0, 0, r.err
	}
	var w *cq.SpineWeights
	if core := r.core(); core != nil && len(pos) > 0 {
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
