package plan

// The backtracking route, for negation, order comparisons, cyclic cores
// and comparisons past free-connex ≠: Decide and Count run the plan's
// engines, and the first pass memoizes the backtracking evaluation, which
// later passes replay, a resumed one reslices and a backtracking Count
// measures.

import (
	"context"
	"math/big"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/ineq"
)

type backtrackRoute struct {
	Prepared
	done bool // rows and err hold the evaluation; guarded by pr.mu
	rows []database.Tuple
	err  error
}

func bindBacktrack(p *Plan, db *database.Database, _ *delay.Counter) *Prepared {
	r := new(backtrackRoute)
	return r.bind(p, db, r, false, p.CQ)
}

func (r *backtrackRoute) enumerate(_ context.Context, _ *delay.Counter, pos []byte) (pass, uint64, uint64, error) {
	r.mu.Lock()
	if !r.done {
		r.rows, r.err = ineq.EvalBacktrack(r.db, r.plan.CQ)
		r.done = true
	}
	rows, err := r.rows, r.err
	r.mu.Unlock()
	if err != nil {
		return nil, 0, 0, err
	}
	off := offset(pos)
	return replay(rows, off), off, off, nil
}

// count answers from the memoized answer list when a pass has filled it
// and the plan counts by backtracking, which would evaluate the same list
// again; else it runs the plan's counting engine, and fills no memo, so a
// statement only counted pins no answer list.
func (r *backtrackRoute) count(c *delay.Counter) (*big.Int, error) {
	if !r.done || r.plan.CountEngine != EngineBacktrack {
		return r.Prepared.count(c)
	}
	if r.err != nil {
		return nil, r.err
	}
	return big.NewInt(int64(len(r.rows))), nil
}

func (r *backtrackRoute) refresh() RefreshKind {
	r.done, r.rows, r.err = false, nil, nil
	r.pin(false, r.plan.CQ)
	return RefreshDelta
}

// replayPass replays an answer list; its position is the answer offset.
type replayPass struct{ rows []database.Tuple }

// replay enumerates rows from answer off on.
func replay(rows []database.Tuple, off uint64) *replayPass {
	return &replayPass{rows[min(off, uint64(len(rows))):]}
}

func (p *replayPass) Next() (database.Tuple, bool) {
	if len(p.rows) == 0 {
		return nil, false
	}
	t := p.rows[0]
	p.rows = p.rows[1:]
	return t, true
}

func (*replayPass) pos(n uint64) (uint64, database.Tuple) { return n, nil }
