package serve_test

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/serve"
)

// exampleDB carries the relations the examples/ queries mention, so seed
// bodies built from those queries exercise real execution paths, not just
// parse errors.
func exampleDB() *database.Database {
	db := database.NewDatabase()
	bought := database.NewRelation("bought", 2)
	category := database.NewRelation("category", 2)
	follows := database.NewRelation("follows", 2)
	verified := database.NewRelation("verified", 1)
	for i := 1; i <= 8; i++ {
		bought.Insert(database.Tuple{database.Value(i), database.Value(i % 4)})
		category.Insert(database.Tuple{database.Value(i % 4), database.Value(i % 3)})
		follows.Insert(database.Tuple{database.Value(i), database.Value((i + 1) % 8)})
		if i%2 == 0 {
			verified.Insert(database.Tuple{database.Value(i)})
		}
	}
	db.AddRelation(bought)
	db.AddRelation(category)
	db.AddRelation(follows)
	db.AddRelation(verified)
	return db
}

// FuzzServeRequest throws arbitrary paths and bodies at the request
// surface: malformed JSON, hostile query text, oversized and forged
// cursors, absurd limits. The server must never panic, must always answer
// with well-formed JSON (NDJSON in stream mode), and must never map
// garbage onto 5xx — the only server-side statuses are the deadline and
// admission ones, which valid traffic alone can trigger.
func FuzzServeRequest(f *testing.F) {
	quickstart := "Q(who, kind) :- bought(who, p), category(p, kind)."
	social := "Q(a,b) :- follows(a,b), verified(b), follows(b,c)."
	distinct := "Q(a,b) :- follows(a,b), verified(b), a != b."
	ordered := "Q(a,b) :- follows(a,b), a < b."

	key := bytes.Repeat([]byte{7}, 32)
	db := exampleDB()
	h := serve.New(db, nil, serve.Config{
		CursorKey:    key,
		MaxBodyBytes: 1 << 16,
		MaxPageSize:  64,
	}).Handler()
	// positionCursor is the cursor a first page of query mints: the last
	// answer on the linear-delay route (quickstart), the odometer index on
	// the ACQ≠ route (distinct), the answer offset on the backtracking
	// route (ordered).
	positionCursor := func(query string) string {
		body, _ := json.Marshal(map[string]interface{}{"query": query, "limit": 1})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(body)))
		var page struct {
			Next string `json:"next_cursor"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || page.Next == "" {
			f.Fatalf("no cursor on the first page of %s: %s", query, rec.Body.String())
		}
		return page.Next
	}
	// emptyCursor is the cursor a stream of query cut before its first
	// answer ends with, minted here under the server's key: the cursor
	// codec's header and tag around an empty position.
	emptyCursor := func(query string) string {
		body, _ := json.Marshal(map[string]interface{}{"query": query})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/prepare", bytes.NewReader(body)))
		var prep struct {
			Fingerprint string `json:"fingerprint"`
			Generation  uint64 `json:"generation"`
		}
		json.Unmarshal(rec.Body.Bytes(), &prep)
		fp, err := strconv.ParseUint(prep.Fingerprint, 16, 64)
		if err != nil {
			f.Fatalf("prepare %s: %s", query, rec.Body.String())
		}
		raw := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{1}, fp), prep.Generation)
		m := hmac.New(sha256.New, key)
		m.Write(raw)
		return base64.RawURLEncoding.EncodeToString(m.Sum(raw)[:len(raw)+8])
	}

	add := func(path string, body interface{}) {
		buf, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(path, string(buf))
	}
	add("/v1/decide", map[string]interface{}{"query": quickstart})
	add("/v1/count", map[string]interface{}{"query": social})
	add("/v1/enumerate", map[string]interface{}{"query": quickstart, "limit": 2})
	add("/v1/enumerate", map[string]interface{}{"query": social, "stream": true})
	add("/v1/enumerate", map[string]interface{}{"query": quickstart, "cursor": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"})
	add("/v1/enumerate", map[string]interface{}{"query": quickstart, "cursor": strings.Repeat("x", 2048)})
	add("/v1/enumerate", map[string]interface{}{"query": quickstart, "limit": -5, "deadline_ms": -1})
	for _, q := range []string{quickstart, distinct, ordered} {
		cur := positionCursor(q)
		add("/v1/enumerate", map[string]interface{}{"query": q, "cursor": cur, "limit": 3})
		add("/v1/enumerate", map[string]interface{}{"query": q, "cursor": cur, "stream": true})
		add("/v1/enumerate", map[string]interface{}{"query": q, "cursor": cur[:len(cur)-3]})
		add("/v1/enumerate", map[string]interface{}{"query": social, "cursor": cur})
	}
	add("/v1/enumerate", map[string]interface{}{"query": distinct, "cursor": positionCursor(quickstart)})
	add("/v1/enumerate", map[string]interface{}{"query": quickstart, "cursor": emptyCursor(quickstart), "limit": 2})
	add("/v1/enumerate", map[string]interface{}{"query": quickstart, "cursor": emptyCursor(quickstart), "stream": true})
	add("/v1/enumerate", map[string]interface{}{"query": ordered, "cursor": emptyCursor(quickstart)})
	add("/v1/enumerate", map[string]interface{}{"query": quickstart, "cursor": "A" + strings.Repeat("_", 255)})
	add("/v1/prepare", map[string]interface{}{"query": "Q() :- bought(x, y)."})
	add("/v1/mutate", map[string]interface{}{"pred": "bought", "op": "insert", "tuple": []int64{9, 1}})
	add("/v1/mutate", map[string]interface{}{"pred": "nope", "op": "delete", "tuple": []int64{}})
	f.Add("/v1/decide", `{"query": "Q(x) :- `)
	f.Add("/v1/enumerate", `{"query": 17}`)
	f.Add("/v1/other", `{}`)
	f.Add("/v1/decide", `null`)
	f.Add("/v1/decide", strings.Repeat("[", 1<<10))

	f.Fuzz(func(t *testing.T, path, body string) {
		if len(path) > 256 {
			path = path[:256]
		}
		if !strings.HasPrefix(path, "/") || strings.ContainsAny(path, " \x00") {
			path = "/v1/enumerate"
		}
		// httptest.NewRequest panics on URLs the HTTP layer would already
		// have rejected before routing; only well-formed paths reach the mux.
		if _, err := url.ParseRequestURI(path); err != nil {
			path = "/v1/enumerate"
		}
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic

		switch rec.Code {
		case 200, 400, 410, 413:
		case 301, 307, 308, 404, 405:
			// The mux canonicalizes paths with redirects and answers
			// unknown paths/methods with plain text; only the protocol
			// endpoints promise JSON.
			return
		case 429, 504:
			t.Fatalf("single-threaded fuzz request hit %d on %q", rec.Code, path)
		default:
			t.Fatalf("unexpected status %d for path %q body %q", rec.Code, path, body)
		}
		if rec.Body.Len() == 0 {
			return
		}
		// Every response line must be JSON (one line for unary responses,
		// many for NDJSON streams).
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		for dec.More() {
			var v interface{}
			if err := dec.Decode(&v); err != nil {
				t.Fatalf("non-JSON response for path %q body %q: %v\n%s", path, body, err, rec.Body.String())
			}
		}
	})
}
