package plan

// The linear-delay route (Theorem 4.3). Bind full-reduces the query's
// relations, and Decide reads their non-emptiness. A pass binds the head
// variables one at a time over sorted candidates, so it emits in
// lexicographic order of the head and its last answer is its position.

import (
	"context"
	"encoding/binary"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
)

type linearRoute struct {
	Prepared
	prep *cq.LinearPrep // nil when the build failed with err
	err  error
	refr *cq.LinearRefresher // installed by the first refresh that rebuilds
}

func bindLinear(p *Plan, db *database.Database, c *delay.Counter) *Prepared {
	r := new(linearRoute)
	pr := r.bind(p, db, r, true, p.CQ)
	r.prep, r.err = cq.PrepareLinearDelay(db, p.CQ, c)
	return pr
}

// decide reads the full reduction's non-emptiness.
func (r *linearRoute) decide(c *delay.Counter) (bool, error) {
	if r.prep != nil {
		return r.prep.NonEmpty(), nil
	}
	return r.Prepared.decide(c)
}

// enumerate resumes after pos in about one delay (LinearPrep.EnumerateAfter).
func (r *linearRoute) enumerate(_ context.Context, c *delay.Counter, pos []byte) (pass, uint64, uint64, error) {
	if r.err != nil {
		return nil, 0, 0, r.err
	}
	if len(pos) == 0 {
		return &linearPass{e: r.prep.Enumerate(c)}, 0, 0, nil
	}
	after := make(database.Tuple, len(pos)/8)
	for i := range after {
		after[i] = database.Value(binary.BigEndian.Uint64(pos[8*i:]))
	}
	return &linearPass{e: r.prep.EnumerateAfter(c, after), last: after}, 0, 0, nil
}

func (r *linearRoute) refresh() RefreshKind {
	kind := RefreshDelta
	if r.refr == nil || !r.applyDeltas(r.refr) {
		r.refr = nil // the old refresher's state is garbage during the rebuild
		r.refr, r.prep, r.err = cq.NewLinearRefresher(r.db, r.plan.CQ)
		kind = RefreshRebind
	}
	r.pin(true, r.plan.CQ)
	return kind
}

// linearPass is a linear-delay pass. Its position is its last answer: until
// it delivers one, the answer it resumed after, or none on a fresh pass.
type linearPass struct {
	e    delay.Enumerator
	last database.Tuple
}

func (p *linearPass) Next() (database.Tuple, bool) {
	t, ok := p.e.Next()
	if ok {
		p.last = t
	}
	return t, ok
}

func (p *linearPass) pos(uint64) (uint64, database.Tuple) { return 0, p.last }
