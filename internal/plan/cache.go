package plan

import (
	"sync"
	"sync/atomic"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// Cache memoizes compiled plans and bound statements. Plans are keyed by
// the structural fingerprint of the query (collisions resolved by exact
// comparison); Prepareds by (plan, database) with the database generation
// checked on every probe, so a mutation transparently forces a re-Bind
// instead of serving stale row ids. All methods are safe for concurrent
// use; the warm path (fingerprint, probe, generation check) performs no
// allocation — pinned by TestCacheWarmPathAllocs.
type Cache struct {
	mu       sync.RWMutex
	plans    map[uint64][]*Plan
	prepared map[preparedKey]*preparedEntry

	// inflight is the one registry of binds and refreshes in progress — the
	// single coalescing point for cold statements, shared by direct callers
	// (PreparePlan) and qservd's bind lane (StartFlight/Run). A thundering
	// herd of cold probes for the same (plan, db) coalesces onto one flight
	// instead of serializing N binds.
	inflight map[preparedKey]*Flight

	// maxPrepared bounds len(prepared); 0 means unbounded. Entries beyond
	// the bound are evicted least-recently-used, so a workload cycling
	// through many (plan, database) pairs cannot grow the cache — and,
	// through the db pointers in its keys, retain dead databases — forever.
	maxPrepared int

	hits      atomic.Uint64
	misses    atomic.Uint64
	refreshes [3]atomic.Uint64 // by RefreshKind
	clock     atomic.Uint64
}

type preparedKey struct {
	plan *Plan
	db   *database.Database
}

type preparedEntry struct {
	gen     uint64
	pr      *Prepared
	lastUse atomic.Uint64
}

// Flight is one in-progress bind or refresh of a (plan, database) pair.
// Its leader (see StartFlight) calls Run; everyone else waits on Done.
type Flight struct {
	c    *Cache
	key  preparedKey
	done chan struct{} // closed once pr/err are settled
	pr   *Prepared
	err  error
}

func (c *Cache) touch(e *preparedEntry) {
	e.lastUse.Store(c.clock.Add(1))
}

// NewCache creates an empty plan cache.
func NewCache() *Cache {
	return &Cache{
		plans:    make(map[uint64][]*Plan),
		prepared: make(map[preparedKey]*preparedEntry),
		inflight: make(map[preparedKey]*Flight),
	}
}

// Stats returns the number of warm probes (hits) and of probes that had to
// compile and/or bind (misses).
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Refreshes returns how many probes found a stale statement and caught it
// up in place (Prepared.Refresh) instead of binding a fresh one. A refresh
// counts as neither hit nor miss.
func (c *Cache) Refreshes() uint64 {
	return c.RefreshesOf(RefreshNoop) + c.RefreshesOf(RefreshDelta) + c.RefreshesOf(RefreshRebind)
}

// RefreshesOf returns how many of those refreshes were of the given kind:
// noop (the mutation missed the statement's read set — a bystander kept
// its memos), delta (patched in place) or rebind (spine rebuilt).
func (c *Cache) RefreshesOf(k RefreshKind) uint64 { return c.refreshes[k].Load() }

// Len returns the number of bound statements currently cached.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.prepared)
}

// SetMaxPrepared bounds the number of cached bound statements; 0 removes
// the bound. If the cache is already over the new bound, least-recently-
// used entries are evicted immediately.
func (c *Cache) SetMaxPrepared(n int) {
	c.mu.Lock()
	c.maxPrepared = n
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked enforces maxPrepared by dropping least-recently-used
// entries. Caller holds the write lock.
func (c *Cache) evictLocked() {
	if c.maxPrepared <= 0 {
		return
	}
	for len(c.prepared) > c.maxPrepared {
		var oldest preparedKey
		first, min := true, uint64(0)
		for k, e := range c.prepared {
			if u := e.lastUse.Load(); first || u < min {
				first, min, oldest = false, u, k
			}
		}
		delete(c.prepared, oldest)
	}
}

// Reset drops every cached plan and bound statement.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.plans = make(map[uint64][]*Plan)
	c.prepared = make(map[preparedKey]*preparedEntry)
	c.mu.Unlock()
}

// lookupPlan finds a cached plan structurally equal to q (or u). Caller
// holds at least the read lock.
func (c *Cache) lookupPlan(fp uint64, q *logic.CQ, u *logic.UCQ) *Plan {
	for _, p := range c.plans[fp] {
		if q != nil && p.CQ != nil && equalCQ(p.CQ, q) {
			return p
		}
		if u != nil && p.UCQ != nil && equalUCQ(p.UCQ, u) {
			return p
		}
	}
	return nil
}

// Compile returns the cached plan for q, compiling on first use.
func (c *Cache) Compile(q *logic.CQ) (*Plan, error) {
	return c.compile(FingerprintCQ(q), q, nil)
}

// CompileUCQ is Compile for unions.
func (c *Cache) CompileUCQ(u *logic.UCQ) (*Plan, error) {
	return c.compile(FingerprintUCQ(u), nil, u)
}

// compile resolves q (or u) to its cached plan. A hit is one fingerprint,
// one map probe and a structural comparison under the read lock — no
// allocation. Compilation is cheap and pure, so a miss runs it under c.mu.
func (c *Cache) compile(fp uint64, q *logic.CQ, u *logic.UCQ) (*Plan, error) {
	c.mu.RLock()
	p := c.lookupPlan(fp, q, u)
	c.mu.RUnlock()
	if p != nil {
		return p, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.lookupPlan(fp, q, u); p != nil {
		return p, nil
	}
	var err error
	if u != nil {
		p, err = CompileUCQ(u)
	} else {
		p, err = Compile(q)
	}
	if err != nil {
		return nil, err
	}
	c.plans[fp] = append(c.plans[fp], p)
	return p, nil
}

// Prepare returns a bound statement for (q, db), compiling and binding at
// most once per database generation: Compile, then PreparePlan.
func (c *Cache) Prepare(q *logic.CQ, db *database.Database) (*Prepared, error) {
	p, err := c.Compile(q)
	if err != nil {
		return nil, err
	}
	return c.PreparePlan(p, db, nil)
}

// PeekPlan probes for a warm bound statement of an already-compiled plan
// without ever binding — the serving fast lane's probe-without-bind. ok is
// false when the statement is cold or stale; the caller decides whether to
// pay the bind (PreparePlan), queue it, or shed the request. A warm probe
// counts as a cache hit; a cold probe counts nothing.
func (c *Cache) PeekPlan(p *Plan, db *database.Database) (*Prepared, bool) {
	c.mu.RLock()
	e := c.prepared[preparedKey{p, db}]
	if e == nil || e.gen != db.Generation() {
		c.mu.RUnlock()
		return nil, false
	}
	c.touch(e)
	c.mu.RUnlock()
	c.hits.Add(1)
	return e.pr, true
}

// PreparePlan returns a generation-fresh bound statement for a compiled
// plan: a warm probe (two map probes, one generation read, no allocation),
// else one flight — led here or joined — that binds or refreshes it. Step
// counting on the miss path lands on counter. A waiter on someone else's
// flight counts as a hit.
func (c *Cache) PreparePlan(p *Plan, db *database.Database, counter *delay.Counter) (*Prepared, error) {
	if pr, ok := c.PeekPlan(p, db); ok {
		return pr, nil
	}
	fl, leader := c.StartFlight(p, db)
	if leader {
		fl.Run(counter)
	} else {
		<-fl.done
		if fl.err == nil {
			// Under the usual locking discipline (executions hold the
			// database read-side while probing) the flight's result is
			// necessarily at the current generation; an undisciplined caller
			// may receive a statement already stale and recovers through
			// ErrStalePlan.
			c.hits.Add(1)
		}
	}
	return fl.pr, fl.err
}

// InFlight returns the unfinished flight for (p, db), or nil when no bind
// of that statement is registered.
func (c *Cache) InFlight(p *Plan, db *database.Database) *Flight {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inflight[preparedKey{p, db}]
}

// StartFlight registers a flight for (p, db) and makes the caller its
// leader, who must call Run exactly once — every joiner blocks until it
// does. If a flight is already registered it is returned with leader
// false. Registration and execution are separate so a bounded scheduler
// (qservd's bind lane) can register a flight when it queues the bind:
// duplicates arriving while it waits for a worker join it instead of
// queueing a second bind.
func (c *Cache) StartFlight(p *Plan, db *database.Database) (fl *Flight, leader bool) {
	key := preparedKey{p, db}
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl := c.inflight[key]; fl != nil {
		return fl, false
	}
	fl = &Flight{c: c, key: key, done: make(chan struct{})}
	c.inflight[key] = fl
	return fl, true
}

// Done is closed once the flight's result is settled.
func (fl *Flight) Done() <-chan struct{} { return fl.done }

// Err reports whether the flight's bind failed; valid once Done is closed.
func (fl *Flight) Err() error { return fl.err }

// Run executes the flight: if the statement is fresh by now (an earlier
// flight landed between the leader's cold probe and this one) it is a hit;
// otherwise a stale cached statement is caught up in place (Refresh — the
// entry, its memory, and its bound spine survive the mutation) or a fresh
// one is bound. The data-dependent work runs outside c.mu, so one slow
// bind never head-of-line-blocks warm probes of other statements. The
// caller holds the database read-side, like any execution.
func (fl *Flight) Run(counter *delay.Counter) {
	c, key := fl.c, fl.key
	c.mu.Lock()
	stale := c.prepared[key]
	if stale != nil && stale.gen == key.db.Generation() {
		c.touch(stale)
		c.hits.Add(1)
		fl.pr = stale.pr
		delete(c.inflight, key)
		c.mu.Unlock()
		close(fl.done)
		return
	}
	c.mu.Unlock()

	var pr *Prepared
	var err error
	refreshed := false
	var kind RefreshKind
	if stale != nil {
		var rerr error
		if kind, rerr = stale.pr.Refresh(counter); rerr == nil {
			pr, refreshed = stale.pr, true
		}
	}
	if pr == nil {
		pr, err = key.plan.BindCounted(key.db, counter)
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if !refreshed && stale != nil && c.prepared[key] == stale {
		delete(c.prepared, key) // could not be caught up: superseded or failed
	}
	fl.pr, fl.err = pr, err
	if refreshed {
		stale.gen = pr.Generation()
		c.touch(stale)
		// Re-insert: an LRU eviction may have dropped the entry while the
		// refresh was in flight.
		c.prepared[key] = stale
		c.refreshes[kind].Add(1)
	} else if err == nil {
		c.misses.Add(1)
		e := &preparedEntry{gen: pr.Generation(), pr: pr}
		c.touch(e)
		c.prepared[key] = e
		c.evictLocked()
	}
	c.mu.Unlock()
	close(fl.done)
}

// PlanByFingerprint resolves a structural fingerprint to the unique cached
// plan carrying it, or nil when no such plan is cached — or when several
// structurally distinct queries collide on fp, in which case serving a
// plan would be a guess; the caller treats both as an unknown handle and
// forces the client to re-prepare with the full query text.
func (c *Cache) PlanByFingerprint(fp uint64) *Plan {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ps := c.plans[fp]; len(ps) == 1 {
		return ps[0]
	}
	return nil
}
