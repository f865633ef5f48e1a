package serve_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/serve"
)

// chainDB builds A = B = {(i, i+1) : i < n}; Q(x,y) :- A(x,y), B(y,z) is
// free-connex over it with n-1 answers, big enough to outlive any deadline.
func chainDB(n int) *database.Database {
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

const chainQuery = "Q(x,y) :- A(x,y), B(y,z)."

// TestDeadlineCutsStreamWithoutLeaking: a 1ms deadline against a 200k-answer
// stream must cut the NDJSON at an answer boundary with an in-band error
// line — and because enumeration is synchronous in the handler, the
// goroutine count afterwards matches the count before.
func TestDeadlineCutsStreamWithoutLeaking(t *testing.T) {
	h := newHandler(chainDB(200_000), serve.Config{})
	// Warm the cache so the deadline is spent inside the stream, not on the
	// one-time bind of a 200k-tuple database.
	if code, _ := postJSON(t, h, "/v1/decide", map[string]interface{}{"query": chainQuery}); code != http.StatusOK {
		t.Fatalf("warmup: status %d", code)
	}
	runtime.GC()
	before := runtime.NumGoroutine()

	buf, _ := json.Marshal(map[string]interface{}{
		"query": chainQuery, "stream": true, "deadline_ms": 5,
	})
	req := httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	last := lines[len(lines)-1]
	var tail struct {
		Error string `json:"error"`
		Done  bool   `json:"done"`
	}
	if err := json.Unmarshal([]byte(last), &tail); err != nil {
		t.Fatalf("last stream line is not JSON: %v\n%s", err, last)
	}
	if tail.Error != "deadline_exceeded" {
		t.Fatalf("stream of 200k answers finished under a 5ms deadline (last line %s)", last)
	}
	// Every line before the cut is a well-formed answer line.
	for _, l := range lines[:len(lines)-1] {
		var line struct {
			Answer []int64 `json:"answer"`
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil || len(line.Answer) != 2 {
			t.Fatalf("malformed answer line before the cut: %q", l)
		}
	}

	// No goroutines may outlive the request.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked across a deadline-cut stream: %d before, %d after", before, after)
	}
}

// TestDeadlineExpiresPageMode: page mode under an immediate deadline fails
// closed with 504/deadline_exceeded rather than returning a partial page.
func TestDeadlineExpiresPageMode(t *testing.T) {
	h := newHandler(chainDB(200_000), serve.Config{MaxPageSize: 1 << 20})
	code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{
		"query": chainQuery, "limit": 1 << 20, "deadline_ms": 1,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	var e string
	json.Unmarshal(out["error"], &e)
	if e != "deadline_exceeded" {
		t.Fatalf("error %q, want deadline_exceeded", e)
	}
}

// TestCursorRejection: forged, mismatched, truncated, and oversized cursors
// are all refused before any of their fields are trusted.
func TestCursorRejection(t *testing.T) {
	db := chainDB(64)
	h := newHandler(db, serve.Config{})
	code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{
		"query": chainQuery, "limit": 4,
	})
	if code != http.StatusOK {
		t.Fatalf("first page: status %d", code)
	}
	var cur string
	json.Unmarshal(out["next_cursor"], &cur)
	if cur == "" {
		t.Fatal("no cursor on an unfinished pagination")
	}

	expect := func(what, cursor, query string, wantCode int, wantErr string) {
		t.Helper()
		code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{
			"query": query, "cursor": cursor,
		})
		var e string
		if out["error"] != nil {
			json.Unmarshal(out["error"], &e)
		}
		if code != wantCode || e != wantErr {
			t.Fatalf("%s: got %d/%q, want %d/%q", what, code, e, wantCode, wantErr)
		}
	}

	// Flip one bit inside the authenticated region.
	raw, err := base64.RawURLEncoding.DecodeString(cur)
	if err != nil {
		t.Fatal(err)
	}
	raw[5] ^= 1
	expect("forged fingerprint", base64.RawURLEncoding.EncodeToString(raw), chainQuery,
		http.StatusBadRequest, "bad_cursor")

	// A valid cursor replayed against a different query.
	expect("query mismatch", cur, "Q(y,x) :- A(x,y), B(y,z).",
		http.StatusBadRequest, "cursor_mismatch")

	expect("truncated", cur[:8], chainQuery, http.StatusBadRequest, "bad_cursor")
	expect("oversized", strings.Repeat("A", 4096), chainQuery, http.StatusBadRequest, "bad_cursor")
	expect("not base64", "!!!!", chainQuery, http.StatusBadRequest, "bad_cursor")

	// The untampered cursor still works afterwards.
	code, _ = postJSON(t, h, "/v1/enumerate", map[string]interface{}{
		"query": chainQuery, "cursor": cur,
	})
	if code != http.StatusOK {
		t.Fatalf("legitimate cursor refused: status %d", code)
	}
}

// TestStatelessResumeAcrossCacheEviction: a cursor held by a client outlives
// the server's prepared-statement cache — Reset evicts everything, and the
// resumed request transparently re-binds and completes the pagination.
func TestStatelessResumeAcrossCacheEviction(t *testing.T) {
	db := chainDB(32)
	srv := serve.New(db, nil, serve.Config{CursorKey: testKey})
	h := srv.Handler()

	got := answerSet{}
	code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{
		"query": chainQuery, "limit": 10,
	})
	if code != http.StatusOK {
		t.Fatalf("first page: status %d", code)
	}
	var answers [][]int64
	json.Unmarshal(out["answers"], &answers)
	for _, a := range answers {
		got[keyOf(a)]++
	}
	var cur string
	json.Unmarshal(out["next_cursor"], &cur)

	srv.Cache().Reset() // the server forgets every plan and binding

	for cur != "" {
		code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{
			"query": chainQuery, "cursor": cur, "limit": 10,
		})
		if code != http.StatusOK {
			t.Fatalf("resume after eviction: status %d: %s", code, out["error"])
		}
		json.Unmarshal(out["answers"], &answers)
		for _, a := range answers {
			got[keyOf(a)]++
			if got[keyOf(a)] > 1 {
				t.Fatalf("duplicate answer %v across the eviction boundary", a)
			}
		}
		var done bool
		json.Unmarshal(out["done"], &done)
		cur = ""
		if !done {
			json.Unmarshal(out["next_cursor"], &cur)
		}
	}
	if want := oracleSetFromQuery(t, db); !sameSets(got, want) {
		t.Fatalf("resumed pagination lost answers: %d got, %d want", len(got), len(want))
	}
}

func oracleSetFromQuery(t *testing.T, db *database.Database) answerSet {
	t.Helper()
	q, err := logic.ParseCQ(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	return oracleSet(t, db, q)
}

// TestMutateEndpoint covers the mutation surface: insert, duplicate insert,
// delete, absent delete, unknown relation, arity mismatch (the same answer
// for both ops), unknown op.
func TestMutateEndpoint(t *testing.T) {
	h := newHandler(chainDB(4), serve.Config{})
	post := func(body map[string]interface{}) (int, map[string]json.RawMessage) {
		return postJSON(t, h, "/v1/mutate", body)
	}
	appliedOf := func(out map[string]json.RawMessage) bool {
		var b bool
		json.Unmarshal(out["applied"], &b)
		return b
	}

	if code, out := post(map[string]interface{}{"pred": "A", "op": "insert", "tuple": []int64{100, 101}}); code != 200 || !appliedOf(out) {
		t.Fatalf("insert: %d applied=%v", code, appliedOf(out))
	}
	if code, out := post(map[string]interface{}{"pred": "A", "op": "delete", "tuple": []int64{100, 101}}); code != 200 || !appliedOf(out) {
		t.Fatalf("delete: %d applied=%v", code, appliedOf(out))
	}
	if code, out := post(map[string]interface{}{"pred": "A", "op": "delete", "tuple": []int64{100, 101}}); code != 200 || appliedOf(out) {
		t.Fatalf("absent delete: %d applied=%v, want applied=false", code, appliedOf(out))
	}
	if code, _ := post(map[string]interface{}{"pred": "Z", "op": "insert", "tuple": []int64{1}}); code != http.StatusNotFound {
		t.Fatalf("unknown relation: status %d, want 404", code)
	}
	if code, _ := post(map[string]interface{}{"pred": "A", "op": "insert", "tuple": []int64{1}}); code != http.StatusBadRequest {
		t.Fatalf("arity mismatch: status %d, want 400", code)
	}
	for _, op := range []string{"insert", "delete"} {
		for _, tuple := range [][]int64{{}, {1}, {1, 2, 3}} {
			code, out := post(map[string]interface{}{"pred": "A", "op": op, "tuple": tuple})
			var e string
			json.Unmarshal(out["error"], &e)
			if code != http.StatusBadRequest || e != "bad_tuple" {
				t.Fatalf("%s of arity-%d tuple into arity-2 A: %d %q, want 400 bad_tuple", op, len(tuple), code, e)
			}
		}
	}
	if code, _ := post(map[string]interface{}{"pred": "A", "op": "upsert", "tuple": []int64{1, 2}}); code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", code)
	}
}

// TestStatsAndHealth: the observability endpoints answer with well-formed
// JSON that reflects traffic.
func TestStatsAndHealth(t *testing.T) {
	h := newHandler(chainDB(8), serve.Config{})
	postJSON(t, h, "/v1/decide", map[string]interface{}{"query": chainQuery})
	postJSON(t, h, "/v1/count", map[string]interface{}{"query": chainQuery})

	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var st serve.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if st.Requests["decide"] != 1 || st.Requests["count"] != 1 {
		t.Fatalf("request counters %v", st.Requests)
	}
	if st.LatencyCount != 2 {
		t.Fatalf("latency count %d, want 2", st.LatencyCount)
	}

	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
}
