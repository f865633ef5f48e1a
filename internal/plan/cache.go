package plan

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// Cache memoizes compiled plans, keyed by the structural fingerprint of
// the query (collisions resolved by exact comparison), and bound
// statements, keyed by (plan, database) with the generation checked on
// every probe, so a mutation forces a refresh or re-Bind instead of
// serving stale row ids. All methods are safe for concurrent use; the warm
// path (fingerprint, probe, generation check) allocates nothing.
type Cache struct {
	mu       sync.RWMutex
	plans    map[uint64][]*planEntry
	nplans   int
	prepared map[preparedKey]*preparedEntry

	// compiling holds the compiles in progress by fingerprint: a compile
	// of a query structurally equal to one in flight waits for its plan.
	compiling map[uint64][]*compileFlight
	compiles  atomic.Uint64 // compiles run, for tests

	// inflight is the one registry of binds and refreshes in progress,
	// shared by PreparePlan and qservd's bind lane (StartFlight/Run): cold
	// probes for the same (plan, db) coalesce onto one flight.
	inflight map[preparedKey]*Flight

	// maxPrepared bounds len(prepared) and nplans, each least-recently-
	// used out, so that neither the keys' db pointers nor a stream of
	// novel query texts can grow the cache without end; 0 is unbounded.
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

type planEntry struct {
	p       *Plan
	lastUse atomic.Uint64
}

// compileFlight is one compile in progress; done is closed once p and err
// are settled.
type compileFlight struct {
	q    *logic.CQ
	u    *logic.UCQ
	done chan struct{}
	p    *Plan
	err  error
}

// errCompileAborted is a compile flight's result if its compile panicked.
var errCompileAborted = errors.New("plan: compile aborted")

// Flight is one bind or refresh of a (plan, database) pair in progress: its
// leader (StartFlight) calls Run, and everyone else waits on Done.
type Flight struct {
	c    *Cache
	key  preparedKey
	done chan struct{} // closed once pr/err are settled
	pr   *Prepared
	err  error
}

// touch stamps an entry's last use, under either lock.
func (c *Cache) touch(lastUse *atomic.Uint64) {
	lastUse.Store(c.clock.Add(1))
}

// NewCache creates an empty plan cache.
func NewCache() *Cache {
	return &Cache{
		plans:     make(map[uint64][]*planEntry),
		prepared:  make(map[preparedKey]*preparedEntry),
		compiling: make(map[uint64][]*compileFlight),
		inflight:  make(map[preparedKey]*Flight),
	}
}

// Stats returns the number of warm probes (hits) and of probes that had to
// compile and/or bind (misses).
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Refreshes returns how many probes caught a stale statement up in place
// (Prepared.Refresh) instead of binding a fresh one: neither hit nor miss.
func (c *Cache) Refreshes() uint64 {
	return c.RefreshesOf(RefreshNoop) + c.RefreshesOf(RefreshDelta) + c.RefreshesOf(RefreshRebind)
}

// RefreshesOf returns how many of those refreshes were of the given kind.
func (c *Cache) RefreshesOf(k RefreshKind) uint64 { return c.refreshes[k].Load() }

// Len returns the number of bound statements currently cached.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.prepared)
}

// SetMaxPrepared bounds the number of cached bound statements and, apart,
// the number of cached compiled plans, evicting least-recently-used ones
// at once; 0 removes the bounds. A plan is used when a compile hits it,
// when PlanByFingerprint resolves it and when it is inserted. Evicting a
// plan drops its bound statements too, and PlanByFingerprint no longer
// finds it: a statement handle naming it must be prepared again from the
// query text.
func (c *Cache) SetMaxPrepared(n int) {
	c.mu.Lock()
	c.maxPrepared = n
	c.evictLocked()
	c.evictPlansLocked()
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

// evictPlansLocked enforces maxPrepared on the plans by dropping
// least-recently-used ones with their bound statements. Caller holds the
// write lock.
func (c *Cache) evictPlansLocked() {
	for c.maxPrepared > 0 && c.nplans > c.maxPrepared {
		var oldest *planEntry
		for _, es := range c.plans {
			for _, e := range es {
				if oldest == nil || e.lastUse.Load() < oldest.lastUse.Load() {
					oldest = e
				}
			}
		}
		fp := oldest.p.fp
		if es := slices.DeleteFunc(c.plans[fp], func(e *planEntry) bool { return e == oldest }); len(es) > 0 {
			c.plans[fp] = es
		} else {
			delete(c.plans, fp)
		}
		c.nplans--
		for k := range c.prepared {
			if k.plan == oldest.p {
				delete(c.prepared, k)
			}
		}
	}
}

// Reset drops every cached plan and bound statement.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.plans = make(map[uint64][]*planEntry)
	c.nplans = 0
	c.prepared = make(map[preparedKey]*preparedEntry)
	c.mu.Unlock()
}

// sameQuery reports whether q (or u) is structurally equal to pq (or pu).
func sameQuery(pq *logic.CQ, pu *logic.UCQ, q *logic.CQ, u *logic.UCQ) bool {
	if q != nil {
		return pq != nil && equalCQ(pq, q)
	}
	return pu != nil && equalUCQ(pu, u)
}

// lookupPlan finds the cached plan structurally equal to q (or u). Caller
// holds at least the read lock.
func (c *Cache) lookupPlan(fp uint64, q *logic.CQ, u *logic.UCQ) *planEntry {
	for _, e := range c.plans[fp] {
		if sameQuery(e.p.CQ, e.p.UCQ, q, u) {
			return e
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
// one map probe, a structural comparison and a use stamp under the read
// lock. A miss compiles with no lock held, so a slow compile stalls no
// other statement; a miss on a query whose compile is already in flight
// waits for that compile's plan, so one text runs one compile at a time.
func (c *Cache) compile(fp uint64, q *logic.CQ, u *logic.UCQ) (*Plan, error) {
	c.mu.RLock()
	e := c.lookupPlan(fp, q, u)
	if e != nil {
		c.touch(&e.lastUse)
	}
	c.mu.RUnlock()
	if e != nil {
		return e.p, nil
	}
	c.mu.Lock()
	if e := c.lookupPlan(fp, q, u); e != nil {
		c.touch(&e.lastUse)
		c.mu.Unlock()
		return e.p, nil
	}
	for _, f := range c.compiling[fp] {
		if sameQuery(f.q, f.u, q, u) {
			c.mu.Unlock()
			<-f.done
			return f.p, f.err
		}
	}
	f := &compileFlight{q: q, u: u, done: make(chan struct{}), err: errCompileAborted}
	c.compiling[fp] = append(c.compiling[fp], f)
	c.mu.Unlock()
	defer c.endCompile(fp, f)
	c.compiles.Add(1)
	if u != nil {
		f.p, f.err = CompileUCQ(u)
	} else {
		f.p, f.err = Compile(q)
	}
	return f.p, f.err
}

// endCompile inserts a compile flight's plan, if it compiled, and releases
// the flight's waiters.
func (c *Cache) endCompile(fp uint64, f *compileFlight) {
	c.mu.Lock()
	if fs := slices.DeleteFunc(c.compiling[fp], func(g *compileFlight) bool { return g == f }); len(fs) > 0 {
		c.compiling[fp] = fs
	} else {
		delete(c.compiling, fp)
	}
	if f.err == nil {
		e := &planEntry{p: f.p}
		c.touch(&e.lastUse)
		c.plans[fp] = append(c.plans[fp], e)
		c.nplans++
		c.evictPlansLocked()
	}
	c.mu.Unlock()
	close(f.done)
}

// Prepare is Compile, then PreparePlan.
func (c *Cache) Prepare(q *logic.CQ, db *database.Database) (*Prepared, error) {
	p, err := c.Compile(q)
	if err != nil {
		return nil, err
	}
	return c.PreparePlan(p, db, nil)
}

// PeekPlan probes for a warm bound statement of a compiled plan without
// ever binding. ok is false when the statement is cold or stale; the
// caller decides whether to bind (PreparePlan), queue it, or shed the
// request. A warm probe counts as a hit, a cold one nothing.
func (c *Cache) PeekPlan(p *Plan, db *database.Database) (*Prepared, bool) {
	c.mu.RLock()
	e := c.prepared[preparedKey{p, db}]
	if e == nil || e.gen != db.Generation() {
		c.mu.RUnlock()
		return nil, false
	}
	c.touch(&e.lastUse)
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
			// Executions hold the database read-side while probing, so
			// the result is at the current generation; an undisciplined
			// caller recovers from a stale one through ErrStalePlan.
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
// leader, who must call Run exactly once; if one is registered already it
// is returned with leader false. Registration is separate from Run so that
// a bounded scheduler (qservd's bind lane) registers the flight when it
// queues the bind, and duplicates join it meanwhile.
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

// Run executes the flight: a statement fresh by now is a hit; a stale one
// is caught up in place (Refresh), or else a fresh one is bound. The
// data-dependent work runs outside c.mu, so a slow bind blocks no warm
// probe of another statement. The caller holds the database read-side.
func (fl *Flight) Run(counter *delay.Counter) {
	c, key := fl.c, fl.key
	c.mu.Lock()
	stale := c.prepared[key]
	if stale != nil && stale.gen == key.db.Generation() {
		c.touch(&stale.lastUse)
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
	var kind RefreshKind
	refreshed := false
	if stale != nil {
		if kind, err = stale.pr.Refresh(counter); err == nil {
			pr, refreshed = stale.pr, true
		}
	}
	if !refreshed {
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
		c.touch(&stale.lastUse)
		// Re-insert: an LRU eviction may have dropped the entry while the
		// refresh was in flight.
		c.prepared[key] = stale
		c.refreshes[kind].Add(1)
	} else if err == nil {
		c.misses.Add(1)
		e := &preparedEntry{gen: pr.Generation(), pr: pr}
		c.touch(&e.lastUse)
		c.prepared[key] = e
		c.evictLocked()
	}
	c.mu.Unlock()
	close(fl.done)
}

// PlanByFingerprint resolves a structural fingerprint to the unique cached
// plan carrying it, and stamps its use; nil when none is cached (never
// compiled, evicted or reset) or several distinct queries collide on fp,
// which the caller treats as an unknown handle.
func (c *Cache) PlanByFingerprint(fp uint64) *Plan {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if es := c.plans[fp]; len(es) == 1 {
		c.touch(&es[0].lastUse)
		return es[0].p
	}
	return nil
}
