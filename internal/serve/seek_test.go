package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/database"
	"repro/internal/serve"
)

// streamTail is an NDJSON stream's terminal record.
type streamTail struct {
	Truncated bool   `json:"truncated"`
	Done      bool   `json:"done"`
	Error     string `json:"error"`
	Cursor    string `json:"cursor"`
}

// streamInOrder drains one /v1/enumerate stream request into its answers,
// in the order served, and its terminal record, checking every line's bytes.
func streamInOrder(t *testing.T, h http.Handler, body map[string]interface{}) ([][]int64, streamTail) {
	t.Helper()
	return streamPrefix(t, h, body, -1)
}

// streamPrefix is streamInOrder that decodes and wire-checks only the first
// keep answer lines (all of them when keep < 0) and the terminal record. A
// deadline-cut stream runs to hundreds of thousands of lines; re-decoding
// every one would cost the test far more than the server spent writing it.
func streamPrefix(t *testing.T, h http.Handler, body map[string]interface{}, keep int) ([][]int64, streamTail) {
	t.Helper()
	body["stream"] = true
	buf, _ := json.Marshal(body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(buf)))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: status %d: %s", rec.Code, rec.Body.String())
	}
	raw := rec.Body.Bytes()
	if !bytes.HasSuffix(raw, []byte("\n")) {
		t.Fatalf("stream does not end in a newline: ...%q", raw[max(0, len(raw)-80):])
	}
	cut := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	last := raw[cut:]
	checkWire(t, last)
	var tail streamTail
	if err := json.Unmarshal(last, &tail); err != nil || tail.Done == tail.Truncated {
		t.Fatalf("stream: terminal record %q (%v)", last, err)
	}
	var answers [][]int64
	for rest := raw[:cut]; len(rest) > 0 && len(answers) != keep; {
		l := rest[:bytes.IndexByte(rest, '\n')+1]
		rest = rest[len(l):]
		checkWire(t, l)
		var line struct {
			Answer []int64 `json:"answer"`
		}
		if err := json.Unmarshal(l, &line); err != nil || line.Answer == nil {
			t.Fatalf("stream: malformed answer line %q", l)
		}
		answers = append(answers, line.Answer)
	}
	return answers, tail
}

// pagesInOrder walks /v1/enumerate pages of the statement named by base
// (query text or handle) from cursor ("" = the start) to exhaustion,
// asserting every page is well-formed and in the map-based encoder's bytes,
// and returns the answers in the order served. The walk is bounded by the
// statement's /v1/count: a cursor that stops advancing fails once the walk
// has served more answers, or more pages, than the count allows, instead
// of paging forever.
func pagesInOrder(t *testing.T, h http.Handler, base map[string]interface{}, cursor string, pageSize int) [][]int64 {
	t.Helper()
	code, out := postJSON(t, h, "/v1/count", base)
	var count string
	json.Unmarshal(out["count"], &count)
	limit, err := strconv.Atoi(count)
	if code != http.StatusOK || err != nil {
		t.Fatalf("count before the walk: status %d, count %q", code, count)
	}
	var all [][]int64
	for page := 0; ; page++ {
		if len(all) > limit || page > limit+1 {
			t.Fatalf("page %d (size %d): the walk has served %d answers of %d and not ended", page, pageSize, len(all), limit)
		}
		body := map[string]interface{}{"limit": pageSize}
		for k, v := range base {
			body[k] = v
		}
		if cursor != "" {
			body["cursor"] = cursor
		}
		code, raw := postBody(t, h, "/v1/enumerate", body)
		if code != http.StatusOK {
			t.Fatalf("page %d (size %d): status %d: %s", page, pageSize, code, raw)
		}
		checkWire(t, raw)
		var out map[string]json.RawMessage
		json.Unmarshal(raw, &out)
		var answers [][]int64
		if err := json.Unmarshal(out["answers"], &answers); err != nil {
			t.Fatalf("page %d: bad answers: %v", page, err)
		}
		if len(answers) > pageSize {
			t.Fatalf("page %d: %d answers exceed page size %d", page, len(answers), pageSize)
		}
		all = append(all, answers...)
		var done bool
		if err := json.Unmarshal(out["done"], &done); err != nil {
			t.Fatalf("page %d: bad done: %v", page, err)
		}
		if done {
			if out["next_cursor"] != nil {
				t.Fatalf("page %d: done page still carries a cursor", page)
			}
			return all
		}
		if err := json.Unmarshal(out["next_cursor"], &cursor); err != nil || cursor == "" {
			t.Fatalf("page %d: not done but no usable cursor (%v)", page, err)
		}
	}
}

// distinctSet folds answers into a set, failing on a repeat.
func distinctSet(t *testing.T, what string, answers [][]int64) answerSet {
	t.Helper()
	got := answerSet{}
	for _, a := range answers {
		if got[keyOf(a)]++; got[keyOf(a)] > 1 {
			t.Fatalf("%s: duplicate answer %v", what, a)
		}
	}
	return got
}

func mutate(t *testing.T, h http.Handler, pred, op string, tuple ...int64) {
	t.Helper()
	code, out := postJSON(t, h, "/v1/mutate", map[string]interface{}{"pred": pred, "op": op, "tuple": tuple})
	var applied bool
	json.Unmarshal(out["applied"], &applied)
	if code != http.StatusOK || !applied {
		t.Fatalf("mutate %s %s%v: status %d applied %v", op, pred, tuple, code, applied)
	}
}

// TestStreamResumeAfterDeltaDelete: pages and streams of one generation
// share one order, also after the statement absorbed a delta DELETE in
// place. The stream walks the patched spine (whose root and buckets
// swap-remove); pages used to index a random-access structure rebuilt from
// the database in ITS order, so a deadline-truncated stream resumed through
// its cursor returned a wrong suffix — answers twice, others never. With
// pages served by a seek on the same spine the two agree by construction.
// The stream is cut after its first chunk by a deadline the test fires, so
// the cut does not depend on how fast the host streams.
func TestStreamResumeAfterDeltaDelete(t *testing.T) {
	const n = 50_000
	const query = "Q(x,y,z) :- edge(x,y), edge(y,z)."
	db := database.NewDatabase()
	edge := database.NewRelation("edge", 2)
	for i := 0; i < n; i++ {
		edge.Insert(database.Tuple{database.Value(i), database.Value(i + 1)})
	}
	db.AddRelation(edge)
	s := serve.New(db, nil, serve.Config{MaxPageSize: 1 << 20, CursorKey: testKey})
	h := s.Handler()
	probe := func() {
		t.Helper()
		if code, out := postJSON(t, h, "/v1/decide", map[string]interface{}{"query": query}); code != http.StatusOK {
			t.Fatalf("probe: status %d: %s", code, out["error"])
		}
	}
	// bind → insert → insert → delete, a cache probe after each: the first
	// refresh rebuilds and installs the refresher, the next two are deltas.
	probe()
	mutate(t, h, "edge", "insert", n+5, n+6)
	probe()
	mutate(t, h, "edge", "insert", n+6, n+7)
	probe()
	mutate(t, h, "edge", "delete", 10, 11)
	probe()
	if st := newStats(t, h); st.RefreshRebind != 1 || st.RefreshDelta != 2 {
		t.Fatalf("refreshes rebind/delta = %d/%d, want 1/2 — the delete was not absorbed in place", st.RefreshRebind, st.RefreshDelta)
	}

	full, tail := streamInOrder(t, h, map[string]interface{}{"query": query})
	if !tail.Done || len(full) != n-2 {
		t.Fatalf("full stream: %d answers, done %v; want %d", len(full), tail.Done, n-2)
	}
	lines, cursor := serve.CutStream(t, s, query)
	prefix := make([][]int64, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &prefix[i]); err != nil {
			t.Fatalf("cut stream answer %q: %v", line, err)
		}
	}
	if len(prefix) == 0 || len(prefix) >= len(full) {
		t.Fatalf("the stream was cut after %d of %d answers, want after its first chunk", len(prefix), len(full))
	}
	got := append(prefix, pagesInOrder(t, h, map[string]interface{}{"query": query}, cursor, 1<<16)...)
	if len(got) != len(full) {
		t.Fatalf("streamed prefix (%d) + paged resume = %d answers, want %d", len(prefix), len(got), len(full))
	}
	for i := range full {
		if keyOf(got[i]) != keyOf(full[i]) {
			t.Fatalf("position %d (prefix %d): resumed walk has %v, the stream %v", i, len(prefix), got[i], full[i])
		}
	}
	// Pages from the start agree with the stream position for position too.
	if pages := pagesInOrder(t, h, map[string]interface{}{"query": query}, "", 20_000); len(pages) != len(full) || keyOf(pages[12]) != keyOf(full[12]) ||
		keyOf(pages[len(pages)-1]) != keyOf(full[len(full)-1]) {
		t.Fatalf("pages from the start diverge from the stream")
	}
}

func newStats(t *testing.T, h http.Handler) serve.Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st serve.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	return st
}

// TestStatsRefreshKinds: /v1/stats splits cache_refreshes by kind, so a
// bystander statement keeping its memos across unrelated writes (noop) is
// visible on a live daemon next to the deltas and rebuilds.
func TestStatsRefreshKinds(t *testing.T) {
	db := database.NewDatabase()
	for _, name := range []string{"A", "B", "C"} {
		r := database.NewRelation(name, 2)
		for i := 0; i < 32; i++ {
			r.Insert(database.Tuple{database.Value(i), database.Value(i + 1)})
		}
		db.AddRelation(r)
	}
	h := newHandler(db, serve.Config{})
	count := func() {
		t.Helper()
		if code, _ := postJSON(t, h, "/v1/count", map[string]interface{}{"query": chainQuery}); code != http.StatusOK {
			t.Fatalf("count: status %d", code)
		}
	}
	count()
	mutate(t, h, "C", "insert", 900, 901) // the statement reads A and B only
	count()
	mutate(t, h, "A", "insert", 900, 1)
	count()
	mutate(t, h, "A", "delete", 900, 1)
	count()
	st := newStats(t, h)
	if st.RefreshNoop != 1 || st.RefreshRebind != 1 || st.RefreshDelta != 1 || st.CacheRefreshes != 3 {
		t.Fatalf("refreshes noop/rebind/delta/total = %d/%d/%d/%d, want 1/1/1/3",
			st.RefreshNoop, st.RefreshRebind, st.RefreshDelta, st.CacheRefreshes)
	}
}

// TestEnumerateBeyondUint64: a statement with 2⁷⁰ answers has no counting
// pass to seek on. Count answers the exact number, pages are served by
// skipping — in the stream's order — and nothing ever reports a wrapped
// count.
func TestEnumerateBeyondUint64(t *testing.T) {
	db := database.NewDatabase()
	r := database.NewRelation("R", 1)
	for i := 0; i < 1<<10; i++ {
		r.Insert(database.Tuple{database.Value(i)})
	}
	db.AddRelation(r)
	const query = "Q(a,b,c,d,e,f,g) :- R(a), R(b), R(c), R(d), R(e), R(f), R(g)."
	h := newHandler(db, serve.Config{})
	code, out := postJSON(t, h, "/v1/count", map[string]interface{}{"query": query})
	var n string
	json.Unmarshal(out["count"], &n)
	if code != http.StatusOK || n != "1180591620717411303424" {
		t.Fatalf("count: status %d, %q; want 2^70", code, n)
	}
	prefix, tail := streamPrefix(t, h, map[string]interface{}{"query": query, "deadline_ms": 250}, 2100)
	if !tail.Truncated || len(prefix) < 2100 {
		t.Fatalf("stream: %d answers, truncated %v", len(prefix), tail.Truncated)
	}
	cursor := ""
	for page := 0; page < 3; page++ {
		body := map[string]interface{}{"query": query, "limit": 700}
		if cursor != "" {
			body["cursor"] = cursor
		}
		code, out := postJSON(t, h, "/v1/enumerate", body)
		if code != http.StatusOK {
			t.Fatalf("page %d: status %d: %s %s", page, code, out["error"], out["detail"])
		}
		var answers [][]int64
		var done bool
		json.Unmarshal(out["answers"], &answers)
		json.Unmarshal(out["done"], &done)
		if done || len(answers) != 700 {
			t.Fatalf("page %d: %d answers, done %v", page, len(answers), done)
		}
		for i, a := range answers {
			if keyOf(a) != keyOf(prefix[page*700+i]) {
				t.Fatalf("page %d answer %d = %v, the stream has %v", page, i, a, prefix[page*700+i])
			}
		}
		json.Unmarshal(out["next_cursor"], &cursor)
	}
}
