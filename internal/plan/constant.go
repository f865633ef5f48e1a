package plan

// The constant-delay route (Theorem 4.6): Bind builds the free-connex
// odometer core, Decide reads its non-emptiness and Count its counting
// pass, a resume seeks over that pass, and only it has random access.

import (
	"context"
	"errors"
	"math/big"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
)

type constRoute struct {
	Prepared
	// core is behind an atomic pointer because Refresh's in-place rebind
	// publishes a rebuilt core under pr.mu, while a fresh pass reads it
	// without taking pr.mu. It is nil when the build failed with err.
	core atomic.Pointer[cq.OdometerCore]
	err  error
	refr *cq.ConstRefresher // installed by the first refresh that rebuilds
	w    spineWeights
}

func bindConstant(p *Plan, db *database.Database, c *delay.Counter) *Prepared {
	r := new(constRoute)
	pr := r.bind(p, db, r, true, p.CQ)
	core, err := cq.PrepareConstantDelay(db, p.CQ, c)
	r.core.Store(core)
	r.err = err
	return pr
}

// decide reads the spine: a full reduction of the (comparison-free)
// query, so non-emptiness answers the decision problem.
func (r *constRoute) decide(c *delay.Counter) (bool, error) {
	if core := r.core.Load(); core != nil {
		return core.NonEmpty(), nil
	}
	return r.Prepared.decide(c)
}

// count reads the spine's counting pass; without a spine, or with more
// answers than a uint64 holds, the star-size DP counts from the database.
func (r *constRoute) count(c *delay.Counter) (*big.Int, error) {
	if _, w, err := r.weightsLocked(c); err == nil {
		return new(big.Int).SetUint64(w.Total()), nil
	}
	return r.Prepared.count(c)
}

// weightsLocked returns the core with its counting pass, built on first
// use; caller holds pr.mu. It fails without a core or a uint64 count.
func (r *constRoute) weightsLocked(c *delay.Counter) (*cq.OdometerCore, *cq.SpineWeights, error) {
	core := r.core.Load()
	if core == nil {
		return nil, nil, r.err
	}
	w, err := r.w.get(core, c)
	return core, w, err
}

func (r *constRoute) enumerate(_ context.Context, c *delay.Counter, pos []byte) (pass, uint64, uint64, error) {
	if len(pos) == 0 {
		core := r.core.Load()
		if core == nil {
			return nil, 0, 0, r.err
		}
		return odometerPass{core.Cursor(c)}, 0, 0, nil
	}
	r.mu.Lock()
	core, w, err := r.weightsLocked(c)
	r.mu.Unlock()
	if core == nil {
		return nil, 0, 0, err
	}
	od, off := core.Cursor(c), offset(pos)
	if w == nil {
		return odometerPass{od}, 0, off, nil // no counting pass: the count overflows a uint64
	}
	od.Seek(w, off)
	return odometerPass{od}, off, off, nil
}

func (r *constRoute) refresh() RefreshKind {
	r.w = spineWeights{}
	kind := RefreshDelta
	if r.refr == nil || !r.applyDeltas(r.refr) {
		r.refr = nil // the old refresher's state is garbage during the rebuild
		refr, core, err := cq.NewConstRefresher(r.db, r.plan.CQ)
		r.refr, r.err, kind = refr, err, RefreshRebind
		r.core.Store(core)
	}
	r.pin(true, r.plan.CQ)
	return kind
}

// odometerPass is a constant-delay pass; its position is the answer offset.
type odometerPass struct{ *cq.Odometer }

func (odometerPass) pos(n uint64) (uint64, database.Tuple) { return n, nil }

// spineWeights memoizes the counting pass over a route's odometer core,
// guarded by pr.mu; a refresh drops it.
type spineWeights struct {
	w   *cq.SpineWeights
	err error
}

func (s *spineWeights) get(core *cq.OdometerCore, c *delay.Counter) (*cq.SpineWeights, error) {
	if s.w == nil && s.err == nil {
		s.w, s.err = cq.NewSpineWeights(core, c)
	}
	return s.w, s.err
}

// errNoRandomAccess refuses the routes without a constant-delay spine.
var errNoRandomAccess = errors.New("plan: random access requires a free-connex acyclic query without comparisons")

// NewRandomAccess returns a random-access handle over the answers of a
// free-connex acyclic query (Section 4.3): a view over the bound spine and
// its memoized counting pass, for one goroutine.
func (pr *Prepared) NewRandomAccess(c *delay.Counter) (*cq.RandomAccess, error) {
	if err := pr.check(); err != nil {
		return nil, err
	}
	r, ok := pr.r.(*constRoute)
	if !ok {
		return nil, errNoRandomAccess
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	core, w, err := r.weightsLocked(c)
	if err != nil {
		return nil, err
	}
	return core.RandomAccess(w, c), nil
}
