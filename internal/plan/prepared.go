package plan

import (
	"context"
	"errors"
	"math/big"
	"sync"

	"repro/internal/counting"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/ineq"
	"repro/internal/logic"
	"repro/internal/ncq"
)

// ErrStalePlan is returned by every execution method of a Prepared whose
// database has mutated since Bind, when its bound row ids may dangle.
// Refresh or re-Bind to recover.
var ErrStalePlan = errors.New("plan: prepared query is stale: database generation advanced since Bind (re-Bind to recover)")

// Prepared is a plan bound to a database: the data-dependent preprocessing
// has run, and executions reuse it, paying only the per-answer work — the
// amortization the paper's preprocessing/delay splits are about. Decide
// and Count are safe for concurrent use; each enumerator from Enumerate is
// an independent cursor for one goroutine.
type Prepared struct {
	plan  *Plan
	db    *database.Database
	gen   uint64 // database generation at Bind time
	r     route
	snaps []relSnap // the read set pinned at the last bind/refresh

	mu      sync.Mutex // guards the memo below and the route's memos
	decided bool
	decideV bool
	decideE error
	counted bool
	countV  *big.Int
	countE  error
}

// A route is the bound state of one row of the route table, and runs the
// tasks on it; one file per route implements it. Its state embeds the
// Prepared it binds (which keeps what every route shares), so a statement
// is one allocation, and the Prepared's decide and count run the plan's
// engines where the bound state answers neither task.
type route interface {
	// decide and count run the task; the caller holds pr.mu and memoizes.
	decide(c *delay.Counter) (bool, error)
	count(c *delay.Counter) (*big.Int, error)
	// enumerate starts a pass at pos, empty or PosLen wide, standing at
	// answer offset at; EnumerateFrom steps it on to offset off.
	enumerate(ctx context.Context, c *delay.Counter, pos []byte) (p pass, at, off uint64, err error)
	// refresh catches the bound state up with a moved read set and pins it
	// again; the caller holds pr.mu and has dropped the memo.
	refresh() RefreshKind
}

// bind makes pr, embedded in its route r, the statement of p over db,
// and pins the relations of qs (pin).
func (pr *Prepared) bind(p *Plan, db *database.Database, r route, spine bool, qs ...*logic.CQ) *Prepared {
	pr.plan, pr.db, pr.gen, pr.r = p, db, db.Generation(), r
	pr.pin(spine, qs...)
	return pr
}

// decide runs the plan's decision engine on the head-stripped query.
func (pr *Prepared) decide(c *delay.Counter) (bool, error) {
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
	}
	return cq.Decide(pr.db, p.boolQ, c)
}

// count runs the plan's counting engine.
func (pr *Prepared) count(c *delay.Counter) (*big.Int, error) {
	p := pr.plan
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
	}
	res, err := ineq.EvalBacktrack(pr.db, p.CQ)
	if err != nil {
		return nil, err
	}
	return big.NewInt(int64(len(res))), nil
}

// Bind runs the data-dependent preprocessing of p over db. See BindCounted.
func (p *Plan) Bind(db *database.Database) (*Prepared, error) {
	return p.BindCounted(db, nil)
}

// BindCounted is Bind with step counting: the preprocessing ticks land on
// c (under a "bind" phase span), where the one-shot engines tick them.
// Bind only fails on nil arguments. A failure to build the enumeration
// spine (unknown relation, unsafe head, ...) is returned by Enumerate,
// while Decide and Count fall back to the plan's engines.
func (p *Plan) BindCounted(db *database.Database, c *delay.Counter) (*Prepared, error) {
	if db == nil {
		return nil, errors.New("plan: nil database")
	}
	span := c.StartSpan("bind")
	defer span.End()
	return p.route.bind(p, db, c), nil
}

// Plan returns the immutable plan this statement was bound from.
func (pr *Prepared) Plan() *Plan { return pr.plan }

// Generation returns the database generation snapshotted at Bind time.
func (pr *Prepared) Generation() uint64 { return pr.gen }

// Stale reports whether the database has mutated since Bind.
func (pr *Prepared) Stale() bool { return pr.db.Generation() != pr.gen }

// check guards every execution method, allocation-free.
func (pr *Prepared) check() error {
	if pr.db.Generation() != pr.gen {
		return ErrStalePlan
	}
	return nil
}

// Decide answers the Boolean version of the query, memoized: a spine's
// non-emptiness, or else the plan's decision engine.
func (pr *Prepared) Decide(c *delay.Counter) (bool, error) {
	if err := pr.check(); err != nil {
		return false, err
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if !pr.decided {
		pr.decideV, pr.decideE = pr.r.decide(c)
		pr.decided = true
	}
	return pr.decideV, pr.decideE
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
		pr.countV, pr.countE = pr.r.count(c)
		pr.counted = true
	}
	if pr.countE != nil {
		return nil, pr.countE
	}
	return new(big.Int).Set(pr.countV), nil
}

// Enumerate starts an enumeration pass over the bound state: a fresh
// cursor over a spine, or a replay of the memoized answer list. Per-answer
// work ticks c.
func (pr *Prepared) Enumerate(c *delay.Counter) (delay.Enumerator, error) {
	if err := pr.check(); err != nil {
		return nil, err
	}
	e, _, _, err := pr.r.enumerate(context.Background(), c, nil)
	return e, err // a nil pass is a nil delay.Enumerator
}
