package serve_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/qgen"
	"repro/internal/serve"
)

// prepareHandle runs /v1/prepare and returns the minted statement handle.
func prepareHandle(t *testing.T, h http.Handler, query string) string {
	t.Helper()
	code, out := postJSON(t, h, "/v1/prepare", map[string]interface{}{"query": query})
	if code != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", code, out["error"])
	}
	var handle string
	json.Unmarshal(out["handle"], &handle)
	if handle == "" {
		t.Fatal("prepare returned no handle")
	}
	return handle
}

// TestHandleLifecycle walks a statement handle through its whole life:
// minted by prepare, accepted by every query endpoint and by mutate as a
// liveness assertion, surviving mutations (the refresh-in-place path), and
// dying with 410 only when the cached plan itself is dropped — after which
// re-preparing with query text issues a working replacement. Forged,
// truncated, and cross-type tokens are refused up front.
func TestHandleLifecycle(t *testing.T) {
	db := chainDB(64)
	srv := serve.New(db, nil, serve.Config{CursorKey: testKey})
	h := srv.Handler()
	handle := prepareHandle(t, h, chainQuery)

	// Every read endpoint accepts the handle and matches the query-text path.
	code, out := postJSON(t, h, "/v1/decide", map[string]interface{}{"handle": handle})
	if code != http.StatusOK {
		t.Fatalf("decide by handle: status %d: %s", code, out["error"])
	}
	var ans bool
	json.Unmarshal(out["answer"], &ans)
	if !ans {
		t.Fatal("decide by handle: false on a nonempty query")
	}
	code, out = postJSON(t, h, "/v1/count", map[string]interface{}{"handle": handle})
	if code != http.StatusOK {
		t.Fatalf("count by handle: status %d", code)
	}
	var byHandle string
	json.Unmarshal(out["count"], &byHandle)
	_, out = postJSON(t, h, "/v1/count", map[string]interface{}{"query": chainQuery})
	var byText string
	json.Unmarshal(out["count"], &byText)
	if byHandle != byText || byHandle == "" {
		t.Fatalf("count by handle %q ≠ by text %q", byHandle, byText)
	}
	if code, _ := postJSON(t, h, "/v1/enumerate", map[string]interface{}{"handle": handle, "limit": 4}); code != http.StatusOK {
		t.Fatalf("enumerate by handle: status %d", code)
	}

	// Handles survive mutations: the statement refreshes underneath them.
	code, _ = postJSON(t, h, "/v1/mutate", map[string]interface{}{
		"pred": "A", "op": "insert", "tuple": []int64{500, 501}, "handle": handle,
	})
	if code != http.StatusOK {
		t.Fatalf("mutate with handle assertion: status %d", code)
	}
	if code, out = postJSON(t, h, "/v1/decide", map[string]interface{}{"handle": handle}); code != http.StatusOK {
		t.Fatalf("decide by handle after mutation: status %d: %s", code, out["error"])
	}

	// Tampering: flip a bit inside the authenticated region.
	raw, err := base64.RawURLEncoding.DecodeString(handle)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 1
	expectHandleErr := func(what, tok string, wantCode int, wantErr string) {
		t.Helper()
		code, out := postJSON(t, h, "/v1/decide", map[string]interface{}{"handle": tok})
		var e string
		if out["error"] != nil {
			json.Unmarshal(out["error"], &e)
		}
		if code != wantCode || e != wantErr {
			t.Fatalf("%s: got %d/%q, want %d/%q", what, code, e, wantCode, wantErr)
		}
	}
	expectHandleErr("forged", base64.RawURLEncoding.EncodeToString(raw), http.StatusBadRequest, "bad_handle")
	expectHandleErr("truncated", handle[:6], http.StatusBadRequest, "bad_handle")
	expectHandleErr("oversized", strings.Repeat("A", 4096), http.StatusBadRequest, "bad_handle")

	// A cursor is not a handle: mint one via pagination and cross-feed it.
	code, out = postJSON(t, h, "/v1/enumerate", map[string]interface{}{"query": chainQuery, "limit": 2})
	if code != http.StatusOK {
		t.Fatalf("page for cursor: status %d", code)
	}
	var cur string
	json.Unmarshal(out["next_cursor"], &cur)
	expectHandleErr("cursor as handle", cur, http.StatusBadRequest, "bad_handle")

	// Eviction of the compiled plan kills the handle with 410 — on query
	// and mutate endpoints alike.
	srv.Cache().Reset()
	expectHandleErr("after cache reset", handle, http.StatusGone, "unknown_handle")
	if code, _ := postJSON(t, h, "/v1/mutate", map[string]interface{}{
		"pred": "A", "op": "delete", "tuple": []int64{500, 501}, "handle": handle,
	}); code != http.StatusGone {
		t.Fatalf("mutate with dead handle: status %d, want 410", code)
	}

	// Recovery contract: re-prepare with query text, get a live handle.
	handle = prepareHandle(t, h, chainQuery)
	if code, out = postJSON(t, h, "/v1/decide", map[string]interface{}{"handle": handle}); code != http.StatusOK {
		t.Fatalf("re-prepared handle refused: status %d: %s", code, out["error"])
	}
	if st := srv.Stats(); st.StaleHandles < 2 {
		t.Fatalf("stale_handles stat %d, want ≥ 2", st.StaleHandles)
	}
}

// TestHandleDiesWithEvictedPlan: the plan cache keeps the statement
// cache's bound of plans, least recently used out, so a stream of novel
// query texts evicts a plan whose handle goes unused: the handle then gets
// 410 unknown_handle, and re-preparing from the text gives a working one.
// A handle in use keeps its plan.
func TestHandleDiesWithEvictedPlan(t *testing.T) {
	srv := serve.New(chainDB(16), nil, serve.Config{CursorKey: testKey})
	h := srv.Handler()
	decide := func(handle string) (int, string) {
		code, out := postJSON(t, h, "/v1/decide", map[string]interface{}{"handle": handle})
		var e string
		if out["error"] != nil {
			json.Unmarshal(out["error"], &e)
		}
		return code, e
	}
	novel := 0
	prepareNovel := func(n int) {
		for i := 0; i < n; i++ {
			novel++
			prepareHandle(t, h, fmt.Sprintf("N%d(x,y) :- A(x,y), B(y,z).", novel))
		}
	}
	handle := prepareHandle(t, h, chainQuery)
	for i := 0; i < 4; i++ {
		prepareNovel(100)
		if code, e := decide(handle); code != http.StatusOK {
			t.Fatalf("a handle in use died after %d novel texts: %d %s", novel, code, e)
		}
	}
	prepareNovel(300)
	if code, e := decide(handle); code != http.StatusGone || e != "unknown_handle" {
		t.Fatalf("a handle unused for %d novel texts: %d %q, want 410 unknown_handle", 300, code, e)
	}
	handle = prepareHandle(t, h, chainQuery)
	if code, e := decide(handle); code != http.StatusOK {
		t.Fatalf("re-prepared handle: %d %s", code, e)
	}
}

// TestStreamTruncationAndResume pins the NDJSON terminal-record contract
// (the bug this fixes: a deadline cut used to end with a bare error line a
// client could not tell from a crash, with no way to resume). A cut stream
// must end with {"truncated":true,"cursor":...}; resuming from that cursor
// over paged enumeration yields exactly the answers the stream did not
// deliver. A completed stream must end with {"done":true} and carry no
// truncation marker.
func TestStreamTruncationAndResume(t *testing.T) {
	const n = 200_000
	db := chainDB(n)
	h := newHandler(db, serve.Config{MaxPageSize: 1 << 20})
	// Warm the statement so the deadline is spent streaming, not binding.
	if code, _ := postJSON(t, h, "/v1/decide", map[string]interface{}{"query": chainQuery}); code != http.StatusOK {
		t.Fatal("warmup failed")
	}

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
	var tail struct {
		Truncated bool   `json:"truncated"`
		Done      bool   `json:"done"`
		Error     string `json:"error"`
		Cursor    string `json:"cursor"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("terminal record is not JSON: %v", err)
	}
	if !tail.Truncated || tail.Error != "deadline_exceeded" || tail.Cursor == "" {
		t.Fatalf("cut stream terminal record %s, want truncated:true with a resume cursor", lines[len(lines)-1])
	}

	// The streamed prefix plus the paged resume must be exactly the full
	// answer set — no gap, no overlap — and resuming costs no stale_cursor
	// because nothing mutated.
	got := answerSet{}
	for _, l := range lines[:len(lines)-1] {
		var line struct {
			Answer []int64 `json:"answer"`
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil || len(line.Answer) != 2 {
			t.Fatalf("malformed answer line before the cut: %q", l)
		}
		got[keyOf(line.Answer)]++
	}
	streamed := len(got)
	cursor := tail.Cursor
	for cursor != "" {
		code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{
			"query": chainQuery, "cursor": cursor, "limit": 1 << 16,
		})
		if code != http.StatusOK {
			t.Fatalf("resume from truncation cursor: status %d: %s", code, out["error"])
		}
		var answers [][]int64
		json.Unmarshal(out["answers"], &answers)
		for _, a := range answers {
			got[keyOf(a)]++
			if got[keyOf(a)] > 1 {
				t.Fatalf("answer %v delivered both before and after the cut", a)
			}
		}
		var done bool
		json.Unmarshal(out["done"], &done)
		cursor = ""
		if !done {
			json.Unmarshal(out["next_cursor"], &cursor)
		}
	}
	if len(got) != n-1 {
		t.Fatalf("stream(%d) + resume = %d answers, want %d", streamed, len(got), n-1)
	}

	// The completed shape: a small database finishes inside the deadline
	// and must report done, not truncated.
	h2 := newHandler(chainDB(32), serve.Config{})
	buf, _ = json.Marshal(map[string]interface{}{"query": chainQuery, "stream": true})
	rec = httptest.NewRecorder()
	h2.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(buf)))
	lines = strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	tail = struct {
		Truncated bool   `json:"truncated"`
		Done      bool   `json:"done"`
		Error     string `json:"error"`
		Cursor    string `json:"cursor"`
	}{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("terminal record is not JSON: %v", err)
	}
	if !tail.Done || tail.Truncated || tail.Error != "" {
		t.Fatalf("completed stream terminal record %s, want done:true", lines[len(lines)-1])
	}
}

// walkPagesBody is walkPages over an arbitrary request base (query text or
// statement handle).
func walkPagesBody(t *testing.T, h http.Handler, base map[string]interface{}, pageSize int) answerSet {
	t.Helper()
	return distinctSet(t, "pages", pagesInOrder(t, h, base, "", pageSize))
}

// TestServeHandleDifferential: for 250 seeded instances per route, a
// server driven entirely through statement handles (prepare once, then
// decide/count/enumerate by handle) must agree exactly — answer sets and
// count strings — with a second server driven inline by query text over an
// identical database. This is the acceptance check that handle-served
// answers are bit-identical to the inline path.
func TestServeHandleDifferential(t *testing.T) {
	seeds := make([]int64, 0, 250)
	if *seedFlag >= 0 {
		seeds = append(seeds, *seedFlag)
	} else {
		for s := int64(0); s < 250; s++ {
			seeds = append(seeds, s)
		}
	}
	covered := map[string]int{}
	for _, seed := range seeds {
		for _, rc := range routes {
			rng := rand.New(rand.NewSource(seed))
			cfg := qgen.Default()
			q := rc.build(rng, cfg)
			if q == nil {
				continue
			}
			covered[rc.name]++
			db := qgen.DatabaseFor(rng, cfg, q)
			hText := newHandler(db, serve.Config{})
			// Second server over the same database: the handle path. (The
			// database is only read here, so sharing it is safe.)
			hHandle := newHandler(db, serve.Config{})
			handle := prepareHandle(t, hHandle, q.String())

			textSet := walkPagesBody(t, hText, map[string]interface{}{"query": q.String()}, 7)
			handleSet := walkPagesBody(t, hHandle, map[string]interface{}{"handle": handle}, 7)
			if !sameSets(textSet, handleSet) {
				t.Fatalf("seed %d %s: handle pagination ≠ inline (%d vs %d answers)\nreplay: go test ./internal/serve -run %s -seed=%d",
					seed, rc.name, len(handleSet), len(textSet), t.Name(), seed)
			}
			_, out := postJSON(t, hText, "/v1/count", map[string]interface{}{"query": q.String()})
			var cText string
			json.Unmarshal(out["count"], &cText)
			code, out := postJSON(t, hHandle, "/v1/count", map[string]interface{}{"handle": handle})
			var cHandle string
			json.Unmarshal(out["count"], &cHandle)
			if code != http.StatusOK || cHandle != cText {
				t.Fatalf("seed %d %s: count by handle %q ≠ inline %q (status %d)\nreplay: go test ./internal/serve -run %s -seed=%d",
					seed, rc.name, cHandle, cText, code, t.Name(), seed)
			}
		}
	}
	for _, rc := range routes {
		if covered[rc.name] == 0 {
			t.Errorf("route %s: no seed produced an instance", rc.name)
		}
	}
	t.Logf("instances per route: %v", covered)
}
