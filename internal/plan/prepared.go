package plan

import (
	"errors"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/counting"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/ineq"
	"repro/internal/ncq"
	"repro/internal/ucq"
)

// ErrStalePlan is returned by every execution method of a Prepared whose
// database has mutated since Bind: the bound semijoin reductions, hash
// indexes, and slab row ids may dangle (Relation.Sort reorders rows in
// place). Re-Bind the plan to recover.
var ErrStalePlan = errors.New("plan: prepared query is stale: database generation advanced since Bind (re-Bind to recover)")

// Prepared is a plan bound to a database: the data-dependent preprocessing
// has run and is reusable across any number of executions. Decide, Count,
// Enumerate and NewRandomAccess never repeat classification, join-tree
// construction, semijoin reduction, or index builds — repeated
// executions pay only the per-answer work, which is the amortization all
// the paper's preprocessing/delay splits are about.
//
// Decide and Count are safe for concurrent use; enumerators returned by
// Enumerate are independent cursors but each one must be drained by a
// single goroutine.
type Prepared struct {
	plan *Plan
	db   *database.Database
	gen  uint64 // database generation at Bind time

	// Enumeration spines, built eagerly at Bind for the routes with
	// reusable preprocessing. At most one is non-nil; a build failure is
	// recorded in spineErr and surfaced by Enumerate (and recovered from
	// by the lazy decision paths). constCore is behind an atomic pointer
	// because Refresh's in-place rebind publishes a rebuilt core under
	// pr.mu, while the Decide/Enumerate fast paths read it without taking
	// pr.mu.
	constCore atomic.Pointer[cq.OdometerCore]
	linPrep   *cq.LinearPrep
	neqPrep   *ineq.NeqPrep
	spineErr  error

	// Refresh state: the read set pinned at the last bind/refresh, and the
	// incremental refreshers once a Refresh has installed them (Bind stays
	// lazy — it only snapshots, so the hot bind path pays nothing).
	snaps   []relSnap
	constR  *cq.ConstRefresher
	linR    *cq.LinearRefresher
	tracked bool

	mu      sync.Mutex
	decided bool
	decideV bool
	decideE error
	counted bool
	countV  *big.Int
	countE  error

	// The answer list of the routes that keep one: the backtracking
	// evaluation, or a union's deduplicated output once a pass has drained.
	// Later passes replay it and a resumed one reslices it.
	rowsDone bool
	rows     []database.Tuple
	rowsErr  error

	// The counting pass over the route's odometer core — the
	// constant-delay spine, or the ACQ≠ core a resumed page seeks in —
	// built on first use; a refresh that patches or rebuilds the core drops
	// it with the other memos.
	w    *cq.SpineWeights
	wErr error
}

// Bind runs the data-dependent preprocessing of p over db. See BindCounted.
func (p *Plan) Bind(db *database.Database) (*Prepared, error) {
	return p.BindCounted(db, nil)
}

// BindCounted is Bind with step counting: the preprocessing ticks land on
// c (under a "bind" phase span), exactly where the one-shot engines would
// have ticked them, so pipeline and one-shot runs are step-compatible.
//
// Bind itself only fails on nil arguments. A failure to build the
// enumeration spine (unknown relation, unsafe head, ...) is deferred: it
// is returned by Enumerate, with the same error the one-shot engine
// produces, while Decide and Count fall back to their own engines.
func (p *Plan) BindCounted(db *database.Database, c *delay.Counter) (*Prepared, error) {
	if db == nil {
		return nil, errors.New("plan: nil database")
	}
	span := c.StartSpan("bind")
	defer span.End()
	pr := &Prepared{plan: p, db: db, gen: db.Generation()}
	if p.UCQ != nil {
		return pr, nil
	}
	switch p.EnumerateEngine {
	case EngineConstantDelay:
		core, err := cq.PrepareConstantDelay(db, p.CQ, c)
		pr.constCore.Store(core)
		pr.spineErr = err
	case EngineLinearDelay:
		pr.linPrep, pr.spineErr = cq.PrepareLinearDelay(db, p.CQ, c)
	case EngineNeqEnum:
		pr.neqPrep, pr.spineErr = ineq.PrepareNeq(db, p.CQ, c)
	}
	if pr.hasSpine() {
		// Snapshot the read set and switch its delta logs on so a later
		// Refresh can replay the mutations. The refreshers themselves are
		// built lazily by the first Refresh that rebinds.
		pr.trackRelations()
	}
	return pr, nil
}

// Plan returns the immutable plan this statement was bound from.
func (pr *Prepared) Plan() *Plan { return pr.plan }

// Generation returns the database generation snapshotted at Bind time.
func (pr *Prepared) Generation() uint64 { return pr.gen }

// Stale reports whether the database has mutated since Bind.
func (pr *Prepared) Stale() bool { return pr.db.Generation() != pr.gen }

// check guards every execution method. It is allocation-free so the warm
// path stays zero-alloc.
func (pr *Prepared) check() error {
	if pr.db.Generation() != pr.gen {
		return ErrStalePlan
	}
	return nil
}

// Decide answers the Boolean version of the query. On a bound plan whose
// enumeration spine exists this is a constant-time non-emptiness check;
// the other routes run their decision engine once and memoize.
func (pr *Prepared) Decide(c *delay.Counter) (bool, error) {
	if err := pr.check(); err != nil {
		return false, err
	}
	p := pr.plan
	if p.UCQ != nil {
		return pr.decideUnion(c)
	}
	if p.DecideEngine == EngineYannakakis && pr.spineErr == nil {
		// The spine is a full reduction of the (comparison-free) query, so
		// non-emptiness answers the decision problem with no further work.
		if core := pr.constCore.Load(); core != nil {
			return core.NonEmpty(), nil
		}
		if pr.linPrep != nil {
			return pr.linPrep.NonEmpty(), nil
		}
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if !pr.decided {
		pr.decideV, pr.decideE = pr.decideSlow(c)
		pr.decided = true
	}
	return pr.decideV, pr.decideE
}

// decideSlow runs the decision engine chosen at compile time on the
// head-stripped query.
func (pr *Prepared) decideSlow(c *delay.Counter) (bool, error) {
	p := pr.plan
	switch p.DecideEngine {
	case EngineNCQ:
		ok, err := ncq.Decide(pr.db, p.boolQ)
		if err != nil {
			return ncq.DecideBrute(pr.db, p.boolQ)
		}
		return ok, nil
	case EngineBacktrack:
		return ineq.DecideBacktrack(pr.db, p.boolQ)
	default:
		return cq.Decide(pr.db, p.boolQ, c)
	}
}

func (pr *Prepared) decideUnion(c *delay.Counter) (bool, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.decided {
		return pr.decideV, pr.decideE
	}
	pr.decided = true
	// True iff some disjunct decides true; later disjuncts are neither
	// bound nor decided once one is (short-circuit).
	for _, bp := range pr.plan.boolDjs {
		sub, err := bp.BindCounted(pr.db, c)
		if err != nil {
			pr.decideE = err
			return false, err
		}
		ok, err := sub.Decide(c)
		if err != nil {
			pr.decideE = err
			return false, err
		}
		if ok {
			pr.decideV = true
			return true, nil
		}
	}
	return false, nil
}

// Count computes |φ(D)| with the counting engine chosen at compile time,
// memoized. The returned value is a fresh copy on every call.
func (pr *Prepared) Count(c *delay.Counter) (*big.Int, error) {
	if err := pr.check(); err != nil {
		return nil, err
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if !pr.counted {
		pr.countV, pr.countE = pr.countSlow(c)
		pr.counted = true
	}
	if pr.countE != nil {
		return nil, pr.countE
	}
	return new(big.Int).Set(pr.countV), nil
}

func (pr *Prepared) countSlow(c *delay.Counter) (*big.Int, error) {
	p := pr.plan
	if p.UCQ != nil {
		return counting.CountUCQ(pr.db, p.UCQ)
	}
	if _, w, err := pr.spineWeightsLocked(c); err == nil {
		// Free-connex: the count is read off the spine already reduced for
		// enumeration. Without a spine, or with more answers than a uint64
		// holds, the engines below count exactly from the database.
		return new(big.Int).SetUint64(w.Total()), nil
	}
	switch p.CountEngine {
	case EngineStarSizeCount:
		s := counting.BigInt{}
		v, err := counting.Count(pr.db, p.CQ, counting.UnitWeight(s), s, c)
		if err != nil {
			return nil, err
		}
		return v.(*big.Int), nil
	case EngineNeqCount:
		return counting.CountNeq(pr.db, p.CQ)
	default:
		res, err := ineq.EvalBacktrack(pr.db, p.CQ)
		if err != nil {
			return nil, err
		}
		return big.NewInt(int64(len(res))), nil
	}
}

// Enumerate starts an enumeration pass. Constant- and linear-delay routes
// hand out a fresh cursor over the bound spine — no preprocessing is
// repeated; the materializing routes evaluate once, memoize, and replay.
// Per-answer work ticks c.
func (pr *Prepared) Enumerate(c *delay.Counter) (delay.Enumerator, error) {
	if err := pr.check(); err != nil {
		return nil, err
	}
	p := pr.plan
	if p.UCQ != nil {
		e, _, err := pr.enumerateUnion(c, 0)
		return e, err
	}
	switch p.EnumerateEngine {
	case EngineConstantDelay:
		if pr.spineErr != nil {
			return nil, pr.spineErr
		}
		return pr.constCore.Load().Cursor(c), nil
	case EngineLinearDelay:
		if pr.spineErr != nil {
			return nil, pr.spineErr
		}
		return pr.linPrep.Enumerate(c), nil
	case EngineNeqEnum:
		if pr.spineErr != nil {
			return nil, pr.spineErr
		}
		return pr.neqPrep.Enumerate(c), nil
	default:
		rows, err := pr.materialized()
		if err != nil {
			return nil, err
		}
		return delay.Slice(rows), nil
	}
}

// materialized memoizes the backtracking evaluation used by the fallback
// enumeration route.
func (pr *Prepared) materialized() ([]database.Tuple, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if !pr.rowsDone {
		pr.rows, pr.rowsErr = ineq.EvalBacktrack(pr.db, pr.plan.CQ)
		pr.rowsDone = true
	}
	return pr.rows, pr.rowsErr
}

// enumerateUnion starts a union pass at answer off, or at the first answer
// while no pass has drained, and reports the answer it starts at. The
// first pass runs the union-extension enumerator of Theorem 4.13 (or the
// materializing fallback) live, recording the deduplicated output; once a
// pass has been fully drained, later passes reslice the recording.
func (pr *Prepared) enumerateUnion(c *delay.Counter, off uint64) (delay.Enumerator, uint64, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.rowsDone {
		return replay(pr.rows, off), off, nil
	}
	p := pr.plan
	if p.unionOK {
		if e, err := ucq.Enumerate(pr.db, p.UCQ, unionMaxExtra, c); err == nil {
			var rec []database.Tuple
			return delay.Func(func() (database.Tuple, bool) {
				t, ok := e.Next()
				if !ok {
					pr.mu.Lock()
					pr.rowsDone, pr.rows = true, rec
					pr.mu.Unlock()
					return nil, false
				}
				rec = append(rec, t.Clone())
				return t, true
			}), 0, nil
		}
		// The extension plan failed against this database (e.g. a missing
		// base relation): fall back to materializing each disjunct.
	}
	var all []database.Tuple
	seen := map[string]bool{}
	for _, d := range p.UCQ.Disjuncts {
		res, err := ineq.EvalBacktrack(pr.db, d)
		if err != nil {
			return nil, 0, err
		}
		for _, t := range res {
			k := t.FullKey()
			if !seen[k] {
				seen[k] = true
				all = append(all, t)
			}
		}
	}
	pr.rowsDone, pr.rows = true, all
	return replay(all, off), off, nil
}

// replay enumerates a memoized answer list from answer off on.
func replay(rows []database.Tuple, off uint64) delay.Enumerator {
	return delay.Slice(rows[min(off, uint64(len(rows))):])
}

// errNoRandomAccess refuses the routes without a constant-delay spine.
var errNoRandomAccess = errors.New("plan: random access requires a free-connex acyclic query without comparisons")

// spineWeightsLocked returns the published constant-delay core with its
// counting pass, building the pass when the core has none yet. Caller holds
// pr.mu. It fails on every other route, on a spine that failed to build,
// and with cq.ErrCountOverflow.
func (pr *Prepared) spineWeightsLocked(c *delay.Counter) (*cq.OdometerCore, *cq.SpineWeights, error) {
	if pr.plan.UCQ != nil || pr.plan.EnumerateEngine != EngineConstantDelay {
		return nil, nil, errNoRandomAccess
	}
	core := pr.constCore.Load()
	if core == nil {
		return nil, nil, pr.spineErr
	}
	w, err := pr.weightsLocked(core, c)
	return core, w, err
}

// weightsLocked returns the counting pass over core, the route's one
// odometer core, building it on first use. Caller holds pr.mu.
func (pr *Prepared) weightsLocked(core *cq.OdometerCore, c *delay.Counter) (*cq.SpineWeights, error) {
	if pr.w == nil && pr.wErr == nil {
		pr.w, pr.wErr = cq.NewSpineWeights(core, c)
	}
	return pr.w, pr.wErr
}

// NewRandomAccess returns a random-access handle over the i-th answer of a
// free-connex acyclic query — the Section 4.3 extension. Only the
// constant-delay route supports it. Handles are cheap views over the bound
// spine and its memoized counting pass; each is for one goroutine.
func (pr *Prepared) NewRandomAccess(c *delay.Counter) (*cq.RandomAccess, error) {
	if err := pr.check(); err != nil {
		return nil, err
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	core, w, err := pr.spineWeightsLocked(c)
	if err != nil {
		return nil, err
	}
	return core.RandomAccess(w, c), nil
}
