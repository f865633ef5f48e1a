package serve

import (
	"expvar"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/plan"
)

// metrics is the server's live instrumentation: request counts per
// endpoint, admission/backpressure outcomes, and an end-to-end request
// latency histogram (the same lock-free log₂ histogram the delay
// instrumentation uses, so expvar exposes the serving p99 next to the
// enumeration-delay p99).
type metrics struct {
	requests        sync.Map // endpoint → *atomic.Int64
	inflight        atomic.Int64
	rejected        atomic.Int64 // 429s from admission control
	badRequests     atomic.Int64
	staleCursors    atomic.Int64 // 410s: cursor generation behind the database
	deadlineExpired atomic.Int64
	staleRetries    atomic.Int64 // ErrStalePlan recoveries (expected: 0 under the lock discipline)
	answersServed   atomic.Int64
	staleHandles    atomic.Int64 // 410s: statement handle no longer resolves
	shed503         atomic.Int64 // 503s: bind lane shed the request
	bindsQueued     atomic.Int64 // flights that waited for a bind-worker slot
	bindsCoalesced  atomic.Int64 // requests that joined another request's in-flight bind
	latency         *obs.Histogram
	bindWait        *obs.Histogram // waiter time in the bind lane
	bindCost        *obs.Histogram // observed bind execution cost
}

func newMetrics() *metrics {
	return &metrics{
		latency:  &obs.Histogram{},
		bindWait: &obs.Histogram{},
		bindCost: &obs.Histogram{},
	}
}

func (m *metrics) count(endpoint string) {
	c, ok := m.requests.Load(endpoint)
	if !ok {
		c, _ = m.requests.LoadOrStore(endpoint, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)
}

// Stats is a point-in-time snapshot of the server, JSON-shaped for the
// /v1/stats endpoint and for expvar. Latencies are nanoseconds.
type Stats struct {
	Generation      uint64           `json:"generation"`
	Inflight        int64            `json:"inflight"`
	Requests        map[string]int64 `json:"requests"`
	Rejected        int64            `json:"rejected_429"`
	BadRequests     int64            `json:"bad_requests"`
	StaleCursors    int64            `json:"stale_cursors"`
	DeadlineExpired int64            `json:"deadline_expired"`
	StaleRetries    int64            `json:"stale_plan_retries"`
	AnswersServed   int64            `json:"answers_served"`
	StaleHandles    int64            `json:"stale_handles"`
	Shed503         int64            `json:"shed_503"`
	BindsQueued     int64            `json:"binds_queued"`
	BindsCoalesced  int64            `json:"binds_coalesced"`
	BindQueueDepth  int              `json:"bind_queue_depth"`
	BindEwmaNS      int64            `json:"bind_ewma_ns"`
	BindWaitP99NS   int64            `json:"bind_wait_p99_ns"`
	BindCostP99NS   int64            `json:"bind_cost_p99_ns"`
	CacheHits       uint64           `json:"cache_hits"`
	CacheMisses     uint64           `json:"cache_misses"`
	CacheRefreshes  uint64           `json:"cache_refreshes"`
	RefreshNoop     uint64           `json:"cache_refresh_noop"`   // of cache_refreshes: read set untouched, memos kept
	RefreshDelta    uint64           `json:"cache_refresh_delta"`  // patched in place
	RefreshRebind   uint64           `json:"cache_refresh_rebind"` // spine rebuilt
	CacheLen        int              `json:"cache_len"`
	LatencyP50NS    int64            `json:"latency_p50_ns"`
	LatencyP99NS    int64            `json:"latency_p99_ns"`
	LatencyMaxNS    int64            `json:"latency_max_ns"`
	LatencyCount    int64            `json:"latency_count"`
}

// Stats snapshots the server's counters, cache statistics, and latency
// quantiles.
func (s *Server) Stats() Stats {
	st := Stats{
		Generation:      s.db.Generation(),
		Inflight:        s.m.inflight.Load(),
		Requests:        map[string]int64{},
		Rejected:        s.m.rejected.Load(),
		BadRequests:     s.m.badRequests.Load(),
		StaleCursors:    s.m.staleCursors.Load(),
		DeadlineExpired: s.m.deadlineExpired.Load(),
		StaleRetries:    s.m.staleRetries.Load(),
		AnswersServed:   s.m.answersServed.Load(),
		StaleHandles:    s.m.staleHandles.Load(),
		Shed503:         s.m.shed503.Load(),
		BindsQueued:     s.m.bindsQueued.Load(),
		BindsCoalesced:  s.m.bindsCoalesced.Load(),
		BindWaitP99NS:   s.m.bindWait.QuantileInterpolated(0.99),
		BindCostP99NS:   s.m.bindCost.QuantileInterpolated(0.99),
		CacheRefreshes:  s.cache.Refreshes(),
		RefreshNoop:     s.cache.RefreshesOf(plan.RefreshNoop),
		RefreshDelta:    s.cache.RefreshesOf(plan.RefreshDelta),
		RefreshRebind:   s.cache.RefreshesOf(plan.RefreshRebind),
		CacheLen:        s.cache.Len(),
		// Interpolated within the winning log₂ bucket: the raw Quantile
		// returns the bucket's upper bound, which pinned E21's p50/p99 to
		// powers of two (0.52ms/2.10ms) regardless of where the mass sat.
		LatencyP50NS: s.m.latency.QuantileInterpolated(0.5),
		LatencyP99NS: s.m.latency.QuantileInterpolated(0.99),
		LatencyMaxNS: s.m.latency.Max(),
		LatencyCount: s.m.latency.Count(),
	}
	st.CacheHits, st.CacheMisses = s.cache.Stats()
	st.BindQueueDepth, st.BindEwmaNS = s.binds.load()
	s.m.requests.Range(func(k, v interface{}) bool {
		st.Requests[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return st
}

var (
	pubMu  sync.Mutex
	pubSrv = map[string]*Server{}
)

// Publish exposes the server's Stats as the expvar variable `name`
// (reachable via /debug/vars). Like obs.Observer.Publish it is re-entrant:
// publishing a second server under the same name replaces the first
// instead of panicking, which keeps tests that build many servers safe.
func (s *Server) Publish(name string) {
	pubMu.Lock()
	defer pubMu.Unlock()
	if _, ok := pubSrv[name]; !ok {
		n := name
		expvar.Publish(n, expvar.Func(func() interface{} {
			pubMu.Lock()
			cur := pubSrv[n]
			pubMu.Unlock()
			return cur.Stats()
		}))
	}
	pubSrv[name] = s
}
