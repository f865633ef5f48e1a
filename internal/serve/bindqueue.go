package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/plan"
)

// The bind queue is the slow lane of the serving path. Warm requests — the
// fast lane — probe the cache under the database read lock and execute
// immediately; a cold bind run inline would occupy an admission slot for
// its whole duration, so a storm of cold binds (after a burst of mutations,
// or a flood of novel queries) could tie up every slot in multi-millisecond
// bind work and starve sub-microsecond warm traffic.
//
// Instead, cold requests drop the read lock and come here. The lane owns
// only what the plan cache cannot know — worker slots, a bounded FIFO and
// a deadline-aware shed rule; which binds are in progress is the cache's
// flight registry (plan.Cache.StartFlight), the one coalescing point:
//
//   - Duplicate cold binds for the same statement join its flight, whether
//     it is running or still queued; joiners just wait for its completion.
//   - At most BindWorkers binds execute concurrently. An uncontended cold
//     bind runs synchronously in the requesting goroutine (so a single
//     client never pays queueing machinery, and a single-threaded caller
//     can never be shed or time out here); beyond that, flights queue.
//   - The queue is bounded (BindQueueDepth) and deadline-aware: a request
//     whose deadline cannot survive the estimated wait — an EWMA of
//     observed bind costs times the queue it would sit behind — is shed
//     immediately with 503 + Retry-After instead of timing out after
//     holding a slot. Shedding is a mutex-guarded arithmetic check, well
//     under a millisecond, and happens before a flight is registered.
//
// A flight, once started or queued, always runs to completion even if
// every waiter's deadline expires: its result lands in the plan cache, so
// the work warms the next probe instead of being wasted. That also means
// no goroutine ever blocks on an abandoned channel — executors are spawned
// per flight and exit when it completes, so an idle server holds no
// bind-lane goroutines at all.
type bindQueue struct {
	s *Server

	mu     sync.Mutex     // also serializes the lane's flight registrations
	active int            // binds executing now (≤ BindWorkers)
	queued []*plan.Flight // FIFO, waiting for a worker slot
	ewmaNS int64          // smoothed observed bind cost; 0 until first bind
}

// shedError is returned to waiters the queue refuses; the handler maps it
// to 503 with the Retry-After hint.
type shedError struct {
	retryAfter time.Duration
	detail     string
}

func (e *shedError) Error() string { return "bind queue overloaded: " + e.detail }

// bind ensures a bound statement for p at the current generation exists in
// the cache (or that the attempt failed), subject to coalescing, queueing,
// and shedding. The caller must NOT hold the database lock. A nil return
// means a flight for this statement completed without error — the caller
// re-probes the cache under the read lock; the statement may have gone
// stale again in between, in which case the caller's retry loop comes back
// here.
func (q *bindQueue) bind(ctx context.Context, p *plan.Plan) error {
	cache, db := q.s.cache, q.s.db
	q.mu.Lock()
	if fl := cache.InFlight(p, db); fl != nil {
		q.mu.Unlock()
		return q.join(ctx, fl)
	}
	free := q.active < q.s.cfg.BindWorkers
	if !free {
		if err := q.refusal(ctx); err != nil {
			q.mu.Unlock()
			return err
		}
	}
	fl, leader := cache.StartFlight(p, db)
	if !leader { // a caller outside the lane registered it since the check above
		q.mu.Unlock()
		return q.join(ctx, fl)
	}
	if free {
		// Uncontended: run the bind in this goroutine. No queue, no
		// deadline arithmetic — the flight is registered first so
		// concurrent duplicates coalesce onto it.
		q.active++
		q.mu.Unlock()
		q.execute(fl)
		return fl.Err()
	}
	q.queued = append(q.queued, fl)
	q.s.m.bindsQueued.Add(1)
	q.mu.Unlock()
	return q.wait(ctx, fl)
}

// refusal decides, with every worker busy, whether a new bind may queue:
// nil, or the shedError to answer with. Caller holds q.mu.
func (q *bindQueue) refusal(ctx context.Context) error {
	depth := len(q.queued)
	if depth >= q.s.cfg.BindQueueDepth {
		return q.shed(0, fmt.Sprintf("bind queue full (%d deep)", depth))
	}
	if dl, ok := ctx.Deadline(); ok && q.ewmaNS > 0 {
		// The queue ahead drains through BindWorkers workers, then our own
		// bind runs: estimate (queued/workers + 1) bind costs.
		est := time.Duration(q.ewmaNS) * time.Duration(depth/q.s.cfg.BindWorkers+1)
		if time.Until(dl) < est {
			return q.shed(est, fmt.Sprintf("deadline cannot survive estimated bind wait %v", est))
		}
	}
	return nil
}

// shed rejects a request without queueing it. retryAfter hints when the
// backlog should have drained; zero (queue full with no cost estimate yet)
// falls back to one second.
func (q *bindQueue) shed(est time.Duration, detail string) error {
	q.s.m.shed503.Add(1)
	if est < time.Second {
		est = time.Second
	}
	return &shedError{retryAfter: est, detail: detail}
}

// execute runs one flight: the bind itself happens under the database read
// lock (a mutation in progress blocks it, exactly like any query), and its
// result lands in the cache, shared with any non-serving-path caller too.
func (q *bindQueue) execute(fl *plan.Flight) {
	start := time.Now()
	q.s.dbMu.RLock()
	fl.Run(nil)
	q.s.dbMu.RUnlock()
	cost := time.Since(start).Nanoseconds()
	q.s.m.bindCost.Observe(cost)

	q.mu.Lock()
	if q.ewmaNS == 0 {
		q.ewmaNS = cost
	} else {
		q.ewmaNS = (3*q.ewmaNS + cost) / 4
	}
	q.active--
	var next *plan.Flight
	if q.active < q.s.cfg.BindWorkers && len(q.queued) > 0 {
		next = q.queued[0]
		q.queued = q.queued[1:]
		q.active++
	}
	q.mu.Unlock()
	if next != nil {
		go q.execute(next)
	}
}

// join waits on a flight another request leads.
func (q *bindQueue) join(ctx context.Context, fl *plan.Flight) error {
	q.s.m.bindsCoalesced.Add(1)
	return q.wait(ctx, fl)
}

// wait blocks a joiner (or the creator of a queued flight) until the
// flight completes or the request deadline expires. The flight itself is
// never cancelled — see the type comment.
func (q *bindQueue) wait(ctx context.Context, fl *plan.Flight) error {
	start := time.Now()
	select {
	case <-fl.Done():
		q.s.m.bindWait.Observe(time.Since(start).Nanoseconds())
		return fl.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// load reports the instantaneous queue length and the current bind-cost
// estimate in nanoseconds (stats only).
func (q *bindQueue) load() (depth int, ewmaNS int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queued), q.ewmaNS
}
