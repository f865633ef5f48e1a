// Package serve implements qservd's HTTP/JSON query-serving layer: prepared
// statements from a shared plan.Cache served to concurrent clients over a
// mutable database.
//
// Every query endpoint is the same five-stage pipeline (Server.query), the
// paper's preprocessing/enumeration split made operational:
//
//	resolve       body → compiled plan, by statement handle or query text
//	admit         an admission slot on entry (guard: 429 when saturated),
//	              then the deadline budget and the endpoint's own vetting
//	              (enumerate: the cursor) — past here the request may cost
//	              statement work
//	bind-or-wait  probe the cache under the database read lock; a cold
//	              statement leaves through the bind lane (bindqueue.go)
//	              with the lock released, then re-probes
//	execute       the endpoint's engine call over the bound statement,
//	              still under the read lock
//	encode        the endpoint's response: a typed struct through
//	              encoding/json for point answers; answers appended by
//	              hand into a pooled buffer for pages and NDJSON streams
//	              (encode.go), a stream written and flushed once per 32 KiB
//	              chunk under a write deadline
//
// The concurrency discipline is the one TestCacheRaceStress pins down at the
// plan layer: every query request holds a read lock on the database for its
// whole probe+execute window, and every mutation holds the write lock. Under
// the read lock the generation cannot move, so a cache probe hands back a
// Prepared that is fresh for the entire execution; ErrStalePlan is therefore
// unreachable in steady state, but the pipeline still recovers from it with
// a bounded re-probe as defense in depth.
//
// Enumeration is paginated behind opaque resumable cursors (see token.go).
// The server keeps no per-client state: a cursor is fingerprint + generation
// + the route-native position after the last answer delivered, and the
// deterministic enumeration order of every engine makes that meaningful
// across requests — even after the cached Prepared was evicted and
// transparently re-bound. Every route resumes at its position
// (plan.Prepared.EnumerateFrom) in about one delay, so a page at any depth
// costs about what the first one does; only a spine with 2⁶⁴ answers or
// more, which has no counting pass to seek in, steps over the answers
// before the page.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
)

// Config tunes the server. Zero values select the defaults.
type Config struct {
	// MaxInFlight bounds concurrently admitted requests; excess requests
	// are rejected immediately with 429 (open-loop clients must see
	// backpressure, not queueing). Default 64.
	MaxInFlight int
	// DefaultDeadline is the per-request execution budget when the request
	// does not carry deadline_ms. Default 5s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. Default 30s.
	MaxDeadline time.Duration
	// MaxBodyBytes bounds request bodies. Default 1 MiB.
	MaxBodyBytes int64
	// MaxPageSize caps (and defaults) the enumerate page size. Default 1024.
	MaxPageSize int
	// CursorKey authenticates cursors and statement handles. Nil draws a
	// random per-server key; tests inject a fixed key to exercise forgery
	// handling.
	CursorKey []byte
	// BindWorkers bounds concurrently executing cold binds in the bind
	// lane (see bindqueue.go). Default 2.
	BindWorkers int
	// BindQueueDepth bounds cold binds waiting for a bind worker; beyond
	// it requests are shed with 503. Default 32.
	BindQueueDepth int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxPageSize <= 0 {
		c.MaxPageSize = 1024
	}
	if c.BindWorkers <= 0 {
		c.BindWorkers = 2
	}
	if c.BindQueueDepth <= 0 {
		c.BindQueueDepth = 32
	}
	if len(c.CursorKey) == 0 {
		key := make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			panic(fmt.Sprintf("serve: cannot draw cursor key: %v", err))
		}
		c.CursorKey = key
	}
	return c
}

// maxPrepared bounds the plan cache's prepared-statement set (LRU).
const maxPrepared = 256

// Server serves prepared-statement queries over one database.
type Server struct {
	cfg   Config
	db    *database.Database
	dict  *database.Dictionary
	cache *plan.Cache
	dbMu  sync.RWMutex // read: query execution; write: mutation
	sem   chan struct{}

	writeMu  sync.Mutex
	writeDue time.Time // when the latest admitted mutation was due (paceWrite)
	m        *metrics
	binds    *bindQueue
}

// New builds a Server over db. dict may be nil (numeric constants only).
func New(db *database.Database, dict *database.Dictionary, cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := plan.NewCache()
	cache.SetMaxPrepared(maxPrepared)
	s := &Server{
		cfg:   cfg,
		db:    db,
		dict:  dict,
		cache: cache,
		sem:   make(chan struct{}, cfg.MaxInFlight),
		m:     newMetrics(),
	}
	s.binds = &bindQueue{s: s}
	return s
}

// Cache exposes the plan cache (tests inspect hit/refresh counters).
func (s *Server) Cache() *plan.Cache { return s.cache }

// Handler returns the HTTP mux: the /v1 query protocol plus health and
// stats. expvar/pprof wiring is left to the daemon binary, which mounts
// this next to the default serve mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/prepare", s.guard("prepare", s.query(nil, s.prepare)))
	mux.HandleFunc("POST /v1/decide", s.guard("decide", s.query(nil, s.decide)))
	mux.HandleFunc("POST /v1/count", s.guard("count", s.query(nil, s.count)))
	mux.HandleFunc("POST /v1/enumerate", s.guard("enumerate", s.query(s.admitEnumerate, s.enumerate)))
	mux.HandleFunc("POST /v1/mutate", s.guard("mutate", s.handleMutate))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse{Generation: s.db.Generation(), Status: "ok"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// guard is the admission wrapper: bounded concurrency with immediate 429
// on saturation, in-flight accounting, and end-to-end latency recording.
func (s *Server) guard(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.m.rejected.Add(1)
			writeError(w, http.StatusTooManyRequests, "overloaded", "max in-flight requests reached")
			return
		}
		defer func() { <-s.sem }()
		s.m.count(endpoint)
		s.m.inflight.Add(1)
		defer s.m.inflight.Add(-1)
		start := time.Now()
		h(w, r)
		s.m.latency.Observe(time.Since(start).Nanoseconds())
	}
}

// ---- request/response wire types ----

type queryRequest struct {
	Query string `json:"query"`
	// Handle, when set, names the statement by a token from /v1/prepare
	// instead of query text (which is then ignored).
	Handle string `json:"handle,omitempty"`
	// Enumerate only:
	Cursor string `json:"cursor,omitempty"`
	Limit  int    `json:"limit,omitempty"`
	Stream bool   `json:"stream,omitempty"`
	// Optional per-request deadline override, capped by MaxDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

type mutateRequest struct {
	Pred  string  `json:"pred"`
	Op    string  `json:"op"` // "insert" | "delete"
	Tuple []int64 `json:"tuple"`
	// Handle, when set, is validated (liveness assertion) before the
	// mutation is applied; the mutation itself is addressed by Pred.
	Handle string `json:"handle,omitempty"`
}

type errorBody struct {
	Error  string `json:"error"`
	Detail string `json:"detail,omitempty"`
}

// The point responses. Each declares its fields in sorted key order, the
// order in which encoding/json writes a map's keys, so the bytes are those
// of the map each one replaced.
type (
	prepareResponse struct {
		Engines     engines `json:"engines"`
		Fingerprint string  `json:"fingerprint"`
		Generation  uint64  `json:"generation"`
		Handle      string  `json:"handle"`
	}
	engines struct {
		Count     plan.Engine `json:"count"`
		Decide    plan.Engine `json:"decide"`
		Enumerate plan.Engine `json:"enumerate"`
	}
	decideResponse struct {
		Answer     bool   `json:"answer"`
		Generation uint64 `json:"generation"`
	}
	countResponse struct {
		Count      string `json:"count"`
		Generation uint64 `json:"generation"`
	}
	mutateResponse struct {
		Applied    bool   `json:"applied"`
		Generation uint64 `json:"generation"`
	}
	healthResponse struct {
		Generation uint64 `json:"generation"`
		Status     string `json:"status"`
	}
)

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, detail string) {
	writeJSON(w, status, errorBody{Error: code, Detail: detail})
}

// decodeBody parses a JSON request body under the configured size cap.
func decodeBody(s *Server, w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return false
	}
	return true
}

// deadline derives the request context: the client's deadline_ms if given
// (capped), else the configured default. The cap is applied in milliseconds:
// converting first would let a huge deadline_ms wrap time.Duration negative
// and slip under it.
func (s *Server) deadline(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = s.cfg.MaxDeadline
		if deadlineMS < d.Milliseconds() {
			d = time.Duration(deadlineMS) * time.Millisecond
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// resolveHandle turns a statement handle into its compiled plan. Handles
// that no longer resolve — the compiled plan was dropped, e.g. by a cache
// reset — get 410 so the client knows to re-prepare with query text rather
// than retry. Writes the error response itself on failure.
func (s *Server) resolveHandle(w http.ResponseWriter, handle string) (*plan.Plan, bool) {
	h, err := decodeToken(s.cfg.CursorKey, kindHandle, handle, 0)
	if err != nil {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_handle", err.Error())
		return nil, false
	}
	p := s.cache.PlanByFingerprint(h.fp)
	if p == nil {
		s.m.staleHandles.Add(1)
		writeError(w, http.StatusGone, "unknown_handle",
			"handle no longer resolves to a cached plan; re-prepare with query text")
		return nil, false
	}
	return p, true
}

// resolvePlan turns the request into a compiled plan: by statement handle
// when one is attached (no parsing, no query text round trip), else by
// query text, counting malformed input. Writes the error response itself on
// failure.
func (s *Server) resolvePlan(w http.ResponseWriter, req *queryRequest) (*plan.Plan, bool) {
	if req.Handle != "" {
		return s.resolveHandle(w, req.Handle)
	}
	if req.Query == "" {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", "empty query")
		return nil, false
	}
	q, err := logic.ParseCQ(req.Query)
	if err != nil {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "parse_error", err.Error())
		return nil, false
	}
	p, err := s.cache.Compile(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "unsupported_query", err.Error())
		return nil, false
	}
	return p, true
}

// withStatement is the bind-or-wait stage: it resolves a generation-fresh
// bound statement for p and runs fn with the database read lock held — the
// fast lane. A cold statement sends the request through the bind lane (see
// bindqueue.go) with the read lock RELEASED, so slow binds never stall
// mutations or occupy more than a bind-worker slot; once the bind lands the
// fast lane re-probes. The ErrStalePlan retry is defense in depth (see the
// package comment). Falling out of the loop means mutations kept outpacing
// binds; the caller reports that as retryable.
func (s *Server) withStatement(ctx context.Context, p *plan.Plan, fn func(pr *plan.Prepared) error) error {
	for attempt := 0; attempt < 4; attempt++ {
		if warm, err := s.runWarm(p, fn); warm {
			if !errors.Is(err, plan.ErrStalePlan) {
				return err
			}
			s.m.staleRetries.Add(1)
			continue
		}
		if err := s.binds.bind(ctx, p); err != nil {
			return err
		}
		// The bind landed; loop to re-probe. A mutation racing in between
		// sends the next iteration back through the bind lane at the new
		// generation.
	}
	return plan.ErrStalePlan
}

// runWarm is the fast lane: under the database read lock it probes the
// cache and, if p is bound at the current generation, runs fn. The unlock is
// deferred because net/http recovers a handler's panic — a read lock left
// held by one would never admit a mutation again.
func (s *Server) runWarm(p *plan.Plan, fn func(pr *plan.Prepared) error) (warm bool, err error) {
	s.dbMu.RLock()
	defer s.dbMu.RUnlock()
	pr, warm := s.cache.PeekPlan(p, s.db)
	if !warm {
		return false, nil
	}
	return true, fn(pr)
}

// retryAfter answers 503 with a Retry-After hint rounded up to seconds.
func retryAfter(w http.ResponseWriter, after time.Duration, code, detail string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((after+time.Second-1)/time.Second)))
	writeError(w, http.StatusServiceUnavailable, code, detail)
}

// expired books a deadline expiry. A client that hung up cancels the same
// context, but that is the client's doing, not a missed deadline.
func (s *Server) expired(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.m.deadlineExpired.Add(1)
	}
}

// writeQueryError maps statement-path errors onto the wire: bind-lane
// shedding and an exhausted stale re-probe → 503 with a Retry-After hint
// (both are retryable overload, not a fault of the query), deadline expiry
// → 504, anything else (unsupported queries, bind failures) → 400.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	var sh *shedError
	switch {
	case errors.As(err, &sh):
		retryAfter(w, sh.retryAfter, "bind_overloaded", sh.detail)
	case errors.Is(err, plan.ErrStalePlan):
		retryAfter(w, time.Second, "stale_plan", "mutations outpaced the statement's binds; retry")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.expired(err)
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	default:
		writeError(w, http.StatusBadRequest, "unsupported_query", err.Error())
	}
}

// ---- the query pipeline ----

// request is one query request's state as it moves through the pipeline.
type request struct {
	queryRequest
	p   *plan.Plan // set by resolve
	cur *token     // set by enumerate's admit step; nil without a cursor
}

// query builds a query endpoint's handler: the pipeline stages named in the
// package comment, parameterised by the endpoint. admit (optional) is the
// endpoint's own vetting of the resolved request before any statement work,
// writing its own error response; execute runs against the bound statement
// under the database read lock and encodes the response, or returns the
// error to map onto the wire.
func (s *Server) query(
	admit func(http.ResponseWriter, *request) bool,
	execute func(context.Context, http.ResponseWriter, *request, *plan.Prepared) error,
) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var q request
		if !decodeBody(s, w, r, &q.queryRequest) {
			return
		}
		var ok bool
		if q.p, ok = s.resolvePlan(w, &q.queryRequest); !ok {
			return
		}
		if admit != nil && !admit(w, &q) {
			return
		}
		ctx, cancel := s.deadline(r, q.DeadlineMS)
		defer cancel()
		err := s.withStatement(ctx, q.p, func(pr *plan.Prepared) error {
			return execute(ctx, w, &q, pr)
		})
		if err != nil {
			s.writeQueryError(w, err)
		}
	}
}

func (s *Server) prepare(_ context.Context, w http.ResponseWriter, q *request, pr *plan.Prepared) error {
	writeJSON(w, http.StatusOK, prepareResponse{
		Engines: engines{
			Count:     q.p.CountEngine,
			Decide:    q.p.DecideEngine,
			Enumerate: q.p.EnumerateEngine,
		},
		Fingerprint: fmt.Sprintf("%016x", q.p.Fingerprint()),
		Generation:  pr.Generation(),
		Handle: encodeToken(s.cfg.CursorKey, token{
			kind: kindHandle,
			fp:   q.p.Fingerprint(),
			gen:  pr.Generation(),
		}),
	})
	return nil
}

func (s *Server) decide(_ context.Context, w http.ResponseWriter, _ *request, pr *plan.Prepared) error {
	ans, err := pr.Decide(nil)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, decideResponse{Answer: ans, Generation: pr.Generation()})
	return nil
}

func (s *Server) count(_ context.Context, w http.ResponseWriter, _ *request, pr *plan.Prepared) error {
	n, err := pr.Count(nil)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, countResponse{Count: n.String(), Generation: pr.Generation()})
	return nil
}

// admitEnumerate checks cursor authenticity and fingerprint binding before
// any statement work — a garbage cursor never costs a bind. The generation
// check has to wait for the read lock.
func (s *Server) admitEnumerate(w http.ResponseWriter, q *request) bool {
	if q.Cursor == "" {
		return true
	}
	cur, err := decodeToken(s.cfg.CursorKey, kindCursor, q.Cursor, q.p.PosLen())
	if err != nil {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_cursor", err.Error())
		return false
	}
	if cur.fp != q.p.Fingerprint() {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "cursor_mismatch",
			"cursor was minted for a different query")
		return false
	}
	q.cur = &cur
	return true
}

func (s *Server) enumerate(ctx context.Context, w http.ResponseWriter, q *request, pr *plan.Prepared) error {
	gen := s.db.Generation()
	var from token
	if q.cur != nil {
		if q.cur.gen != gen {
			// The database moved under the client's pagination. The
			// cursor is dead; the client restarts against the current
			// generation (the cache entry has been refreshed in place,
			// so the restart is a warm probe, not a rebuild).
			s.m.staleCursors.Add(1)
			writeError(w, http.StatusGone, "stale_cursor",
				fmt.Sprintf("cursor generation %d, database at %d", q.cur.gen, gen))
			return nil
		}
		from = *q.cur
	}
	if q.Stream {
		return s.streamAnswers(ctx, w, pr, gen, from)
	}
	limit := q.Limit
	if limit <= 0 || limit > s.cfg.MaxPageSize {
		limit = s.cfg.MaxPageSize
	}
	return s.servePage(ctx, w, pr, gen, from, limit)
}

// A mutation is the one request that costs everybody else: it holds the
// write lock for O(rows), and afterwards every statement reading the relation
// refreshes and every index on it is rebuilt. Mutations are therefore
// admitted at a sustained rate of one per writeInterval, writeBurst of them
// back to back, which leaves readers a fixed share of the machine next to a
// closed loop of writers and makes a write-bound client's rate a matter of
// the clock, not of how fast the host runs the reads in between.
const (
	writeInterval = 2 * time.Millisecond
	writeBurst    = 16
)

// paceWrite blocks until the write budget admits one more mutation. Due
// times lie on a grid, so a mutation that comes late does not delay the ones
// behind it; a writer idle for longer than the burst starts a fresh grid.
func (s *Server) paceWrite() {
	s.writeMu.Lock()
	now := time.Now()
	s.writeDue = s.writeDue.Add(writeInterval)
	if oldest := now.Add(-(writeBurst - 1) * writeInterval); s.writeDue.Before(oldest) {
		s.writeDue = oldest
	}
	wait := s.writeDue.Sub(now)
	s.writeMu.Unlock()
	time.Sleep(wait)
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if !decodeBody(s, w, r, &req) {
		return
	}
	if req.Handle != "" {
		// Liveness assertion: a client batching mutations against a held
		// statement can learn its handle died (cache reset) before paying
		// for the write. The mutation itself is addressed by predicate.
		if _, ok := s.resolveHandle(w, req.Handle); !ok {
			return
		}
	}
	// The relation set and arities are fixed for the server's lifetime, so
	// both ops are validated the same way before the write lock is taken.
	rel := s.db.Relation(req.Pred)
	if rel == nil {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusNotFound, "unknown_relation", req.Pred)
		return
	}
	if len(req.Tuple) != rel.Arity {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_tuple",
			fmt.Sprintf("database: relation %s has arity %d, got tuple of length %d", rel.Name, rel.Arity, len(req.Tuple)))
		return
	}
	if req.Op != "insert" && req.Op != "delete" {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown op %q", req.Op))
		return
	}
	t := make(database.Tuple, len(req.Tuple))
	for i, v := range req.Tuple {
		t[i] = database.Value(v)
	}
	s.paceWrite() // only what will take the write lock spends budget
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	applied := true
	if req.Op == "delete" {
		applied = rel.Delete(t)
	} else if err := rel.InsertBatch([]database.Tuple{t}); err != nil {
		s.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_tuple", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{Applied: applied, Generation: s.db.Generation()})
}

// ---- enumeration: pages, cursors, streaming ----

// servePage writes one page of answers starting where the cursor from
// points (the first answer without one). The page is appended whole into
// one pooled buffer and written at once: a deadline expiring before the
// page is complete answers 504, not a partial page.
func (s *Server) servePage(ctx context.Context, w http.ResponseWriter, pr *plan.Prepared, gen uint64, from token, limit int) error {
	buf := getBuf()
	defer putBuf(buf)
	var n int
	var err error
	if *buf, n, err = s.appendPage(ctx, *buf, pr, gen, from, limit); err != nil {
		return err
	}
	s.m.answersServed.Add(int64(n))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(*buf) // a failed write means the client is gone: nothing is left to tell it
	return nil
}

// appendPage appends the page body of the next limit answers after from in
// the engine's deterministic order and reports how many it holds. The
// buffer is returned even on error, so its capacity goes back to the pool.
func (s *Server) appendPage(ctx context.Context, b []byte, pr *plan.Prepared, gen uint64, from token, limit int) ([]byte, int, error) {
	e, err := pr.EnumerateFrom(ctx, nil, from.pos)
	if err != nil {
		return b, 0, err
	}
	b = append(b, pageHead...)
	n, more := 0, true
	for more && n < limit {
		var t database.Tuple
		if t, more = e.Next(); more {
			if n > 0 {
				b = append(b, ',')
			}
			b = appendTuple(b, t)
			n++
		}
	}
	var next token
	var scratch [64]byte
	if more {
		// The next page resumes after the last answer delivered, so its
		// cursor is taken before the peek reads past it. Peeking one ahead
		// lets the last full page report done without an extra round trip.
		next = cursorAfter(e, pr, gen, scratch[:])
		_, more = e.Next()
	}
	if err := e.Err(); err != nil {
		return b, 0, err
	}
	var cursor string
	if more {
		cursor = encodeToken(s.cfg.CursorKey, next)
	}
	return appendPageTail(b, !more, gen, cursor), n, nil
}

// cursorAfter is the cursor that resumes pr's enumeration after the last
// answer e has delivered, its position appended to scratch[:0]. A pass with
// no position yet — a linear-delay pass cut before its first answer —
// stands at the empty one, where it started. Call it before e reads past
// that answer.
func cursorAfter(e *plan.CtxEnumerator, pr *plan.Prepared, gen uint64, scratch []byte) token {
	return token{kind: kindCursor, fp: pr.Plan().Fingerprint(), gen: gen, pos: e.AppendPos(scratch[:0])}
}

// writeGrace is how long past its deadline a stream may still be writing:
// room for the truncation record.
const writeGrace = time.Second

// streamAnswers writes newline-delimited JSON, one answer per line, then a
// terminal record. A completed stream ends with {"count":n,"done":true}; a
// deadline expiring mid-stream cuts at an answer boundary and ends with
// {"cursor":...,"truncated":true} so the client can tell a cut from a
// finish and resume exactly where the stream stopped. Lines are sent a
// chunk at a time (encode.go). A failed write means the peer is gone: the
// enumeration stops there and only the answers in chunks that were written
// count as served. The enumeration is synchronous in this handler, so
// cancellation leaks nothing.
func (s *Server) streamAnswers(ctx context.Context, w http.ResponseWriter, pr *plan.Prepared, gen uint64, from token) error {
	e, err := pr.EnumerateFrom(ctx, nil, from.pos)
	if err != nil {
		return err
	}
	if err := e.Err(); err != nil {
		return err // the context ended while the pass stepped to its offset: nothing is written yet
	}
	// The stream writes under the database read lock, so a client that
	// stops reading would block a write, and every mutation behind it, for
	// as long as it held the connection open. The write deadline bounds
	// that to the stream's own deadline plus writeGrace. httptest's
	// recorder has no deadlines and answers ErrNotSupported; net/http
	// clears the deadline when the request ends.
	if dl, ok := ctx.Deadline(); ok {
		http.NewResponseController(w).SetWriteDeadline(dl.Add(writeGrace))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	buf := getBuf()
	c := chunkWriter{w: w, b: *buf}
	c.f, _ = w.(http.Flusher)
	var n, served int64 // answers encoded; answers in chunks written
	defer func() {
		s.m.answersServed.Add(served)
		*buf = c.b
		putBuf(buf)
	}()
	for t, more := e.Next(); more; t, more = e.Next() {
		c.b = appendAnswerLine(c.b, t)
		n++
		if len(c.b) >= chunkSize {
			if !c.write(true) {
				return nil
			}
			served = n
		}
	}
	if err := e.Err(); err != nil {
		// Headers are out; report the cut in-band, after the answers
		// still buffered, with a resume cursor positioned after the last.
		s.expired(err)
		c.b = appendRecord(c.b, streamCut{
			Cursor:    encodeToken(s.cfg.CursorKey, cursorAfter(e, pr, gen, nil)),
			Detail:    err.Error(),
			Error:     "deadline_exceeded",
			Truncated: true,
		})
	} else {
		c.b = appendRecord(c.b, streamDone{Count: n, Done: true})
	}
	// The last chunk is left for net/http to flush as the handler returns.
	if c.write(false) {
		served = n
	}
	return nil
}
