package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
)

func compileOn(t *testing.T, s *Server, src string) *plan.Plan {
	t.Helper()
	q, err := logic.ParseCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.cache.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bindChainDB builds the same A/B chain the external tests use, in-package:
// big enough that a cold bind takes real time, so concurrent requests
// genuinely overlap with it.
func bindChainDB(n int) *database.Database {
	db := database.NewDatabase()
	a := database.NewRelation("A", 2)
	b := database.NewRelation("B", 2)
	for i := 0; i < n; i++ {
		a.Insert(database.Tuple{database.Value(i), database.Value(i + 1)})
		b.Insert(database.Tuple{database.Value(i), database.Value(i + 1)})
	}
	db.AddRelation(a)
	db.AddRelation(b)
	return db
}

// TestBindQueueShedDecisions drives the two shed conditions directly
// against a saturated queue (state seeded by hand — real saturation needs
// a bind storm, which the E23 harness provides): a full queue sheds
// unconditionally, and a deadline that cannot survive the EWMA wait
// estimate sheds even with queue space. Both decisions are pure in-memory
// checks — they must return immediately, not after any bind-scale delay.
func TestBindQueueShedDecisions(t *testing.T) {
	s := New(tinyDB(), nil, Config{BindWorkers: 1, BindQueueDepth: 2})
	p := compileOn(t, s, "Q(x) :- A(x).")

	// Queue full: workers busy and every queue slot taken.
	s.binds.mu.Lock()
	s.binds.active = s.cfg.BindWorkers
	s.binds.queued = make([]*plan.Flight, s.cfg.BindQueueDepth)
	s.binds.mu.Unlock()
	start := time.Now()
	err := s.binds.bind(context.Background(), p)
	elapsed := time.Since(start)
	var sh *shedError
	if !errors.As(err, &sh) {
		t.Fatalf("full queue: got %v, want shedError", err)
	}
	if elapsed > 20*time.Millisecond {
		t.Fatalf("shed took %v; it must not wait on anything", elapsed)
	}
	if sh.retryAfter < time.Second {
		t.Fatalf("Retry-After hint %v, want ≥ 1s", sh.retryAfter)
	}

	// Deadline shed: queue has room, but the EWMA estimate says the bind
	// cannot finish inside the request's budget.
	s.binds.mu.Lock()
	s.binds.queued = nil
	s.binds.ewmaNS = (50 * time.Millisecond).Nanoseconds()
	s.binds.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.binds.bind(ctx, p); !errors.As(err, &sh) {
		t.Fatalf("doomed deadline: got %v, want shedError", err)
	}
	if got := s.m.shed503.Load(); got != 2 {
		t.Fatalf("shed counter %d, want 2", got)
	}
	// A generous deadline clears the estimate and queues... but with the
	// workers faked busy it would wait forever, so first release them.
	s.binds.mu.Lock()
	s.binds.active = 0
	s.binds.mu.Unlock()
	if err := s.binds.bind(context.Background(), p); err != nil {
		t.Fatalf("recovered queue refused a bind: %v", err)
	}
	if _, warm := s.cache.PeekPlan(p, s.db); !warm {
		t.Fatal("bind reported success but the statement is cold")
	}
}

// TestBindShedHTTP503 checks the wire mapping end to end: a request the
// bind lane sheds answers 503 with error bind_overloaded and a Retry-After
// header, and once the lane has capacity again the identical request binds
// and serves 200.
func TestBindShedHTTP503(t *testing.T) {
	s := New(tinyDB(), nil, Config{BindWorkers: 1})
	h := s.Handler()
	body := func() *bytes.Reader {
		buf, _ := json.Marshal(map[string]interface{}{
			"query": "Q(x) :- A(x).", "deadline_ms": 5,
		})
		return bytes.NewReader(buf)
	}

	s.binds.mu.Lock()
	s.binds.active = s.cfg.BindWorkers
	s.binds.ewmaNS = (50 * time.Millisecond).Nanoseconds()
	s.binds.mu.Unlock()

	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decide", body()))
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated bind lane answered %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "bind_overloaded" {
		t.Fatalf("503 body %q (%v)", rec.Body.String(), err)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 without a usable Retry-After header (%q)", ra)
	}
	if elapsed > 20*time.Millisecond {
		t.Fatalf("shed response took %v; shedding must be immediate", elapsed)
	}
	if st := s.Stats(); st.Shed503 != 1 {
		t.Fatalf("shed_503 stat %d, want 1", st.Shed503)
	}

	s.binds.mu.Lock()
	s.binds.active = 0
	s.binds.mu.Unlock()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decide", body()))
	if rec.Code != http.StatusOK {
		t.Fatalf("after capacity freed: %d, want 200\n%s", rec.Code, rec.Body.String())
	}
}

// TestBindCoalescing: N concurrent cold requests for the same query must
// cost exactly one bind — one flight holder, everyone else either joins
// the in-flight bind or probes warm after it lands. The plan cache's miss
// counter is the bind count.
func TestBindCoalescing(t *testing.T) {
	s := New(bindChainDB(60_000), nil, Config{})
	h := s.Handler()
	const n = 12
	var start, wg sync.WaitGroup
	start.Add(1)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(map[string]interface{}{"query": "Q(x,y) :- A(x,y), B(y,z)."})
			rec := httptest.NewRecorder()
			start.Wait()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decide", bytes.NewReader(buf)))
			codes[i] = rec.Code
		}(i)
	}
	start.Done()
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, c)
		}
	}
	hits, misses := s.cache.Stats()
	if misses != 1 {
		t.Fatalf("%d concurrent cold requests cost %d binds, want exactly 1 (hits %d)", n, misses, hits)
	}
	t.Logf("coalescing: hits=%d misses=%d joined=%d queued=%d",
		hits, misses, s.m.bindsCoalesced.Load(), s.m.bindsQueued.Load())
}

// TestShedLeavesNoGoroutines storms a one-worker bind lane with distinct
// cold queries — real multi-millisecond binds over a 60k-row database —
// under doomed deadlines: contenders shed with 503, winners bind and serve
// 200, and afterwards the server must hold no bind-lane goroutines at all
// (executors exit with their flight; shed requests never spawn anything).
func TestShedLeavesNoGoroutines(t *testing.T) {
	s := New(bindChainDB(60_000), nil, Config{BindWorkers: 1, BindQueueDepth: 2})
	h := s.Handler()
	// Pessimistic cost estimate: any contended request with a small
	// deadline sheds instead of queueing (so no waiter can hit 504 and
	// the outcome split below is exact).
	s.binds.mu.Lock()
	s.binds.ewmaNS = (250 * time.Millisecond).Nanoseconds()
	s.binds.mu.Unlock()

	runtime.GC()
	before := runtime.NumGoroutine()

	// Distinct head projections give distinct fingerprints: every request
	// is its own cold bind, nothing coalesces.
	heads := []string{"x", "y", "x,y", "y,x", "x,z", "z,x", "y,z", "z,y"}
	const n = 48
	var wg sync.WaitGroup
	var mu sync.Mutex
	byCode := map[int]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("Q%d(%s) :- A(x,y), B(y,z).", i, heads[i%len(heads)])
			buf, _ := json.Marshal(map[string]interface{}{"query": q, "deadline_ms": 5})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decide", bytes.NewReader(buf)))
			mu.Lock()
			byCode[rec.Code]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	for code := range byCode {
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Fatalf("storm produced status %d (distribution %v)", code, byCode)
		}
	}
	if byCode[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("48 doomed cold binds against one worker shed nothing: %v", byCode)
	}
	t.Logf("storm outcomes: %v, shed=%d", byCode, s.m.shed503.Load())

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("bind lane leaked goroutines: %d before storm, %d after", before, after)
	}
}

// TestHandleRoundTrip pins the handle codec: encode → decode is the
// identity, keys matter, and the kind byte keeps handles and cursors
// from impersonating each other.
func TestHandleRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{9}, 32)
	in := token{kind: kindHandle, fp: 0xfeedface00112233, gen: 77}
	out, err := decodeToken(key, kindHandle, encodeToken(key, in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameToken(out, in) {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
	if _, err := decodeToken(bytes.Repeat([]byte{8}, 32), kindHandle, encodeToken(key, in), 0); err == nil {
		t.Fatal("handle verified under a different key")
	}
	// Kind confusion: a cursor is not a handle and vice versa.
	if _, err := decodeToken(key, kindHandle, encodeToken(key, token{kind: kindCursor, fp: 1, gen: 2}), 0); err == nil {
		t.Fatal("cursor accepted as a handle")
	}
	if _, err := decodeToken(key, kindCursor, encodeToken(key, in), 0); err == nil {
		t.Fatal("handle accepted as a cursor")
	}
}
