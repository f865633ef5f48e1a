package serve_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/serve"
)

// parentForm re-encodes one response line — a page body, a stream answer
// line or a stream's terminal record — the way the map-based encoder wrote
// it before answers were appended by hand: decoded into that encoder's value
// types, rebuilt as its map[string]interface{} and put through
// json.NewEncoder(…).Encode. That encoder never wrote null for an answer, so
// nil answers are rebuilt as empty ones and a null on the wire shows as a
// difference, as does any change of key order, spacing or number format.
func parentForm(t *testing.T, line []byte) []byte {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatalf("response line is not a JSON object: %v\n%s", err, line)
	}
	m := map[string]interface{}{}
	for k, v := range raw {
		var err error
		switch k {
		case "answer":
			var a []int64
			err = json.Unmarshal(v, &a)
			m[k] = nonNil(a)
		case "answers":
			var as [][]int64
			err = json.Unmarshal(v, &as)
			out := make([][]int64, 0, len(as))
			for _, a := range as {
				out = append(out, nonNil(a))
			}
			m[k] = out
		case "done", "truncated":
			var b bool
			err = json.Unmarshal(v, &b)
			m[k] = b
		case "generation":
			var g uint64
			err = json.Unmarshal(v, &g)
			m[k] = g
		case "count":
			var n int64
			err = json.Unmarshal(v, &n)
			m[k] = n
		case "next_cursor", "cursor", "error", "detail":
			var s string
			err = json.Unmarshal(v, &s)
			m[k] = s
		default:
			t.Fatalf("unexpected key %q in %s", k, line)
		}
		if err != nil {
			t.Fatalf("key %q of %s: %v", k, line, err)
		}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(m)
	return buf.Bytes()
}

func nonNil(a []int64) []int64 {
	if a == nil {
		return []int64{}
	}
	return a
}

// checkWire asserts that every line of an enumerate response body is byte
// for byte what the map-based encoder wrote for the same values.
func checkWire(t *testing.T, body []byte) {
	t.Helper()
	if !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatalf("response does not end in a newline: ...%q", body[max(0, len(body)-80):])
	}
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if want := parentForm(t, line); !bytes.Equal(line, want) {
			t.Fatalf("wire bytes changed:\n got %s\nwant %s", line, want)
		}
	}
}

// postBody drives the mux in-process and returns the raw response body.
func postBody(t *testing.T, h http.Handler, path string, body interface{}) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(buf)))
	return rec.Code, rec.Body.Bytes()
}

// extremesDB holds R(x,y,z) with negative values and the int64 extremes,
// and U(u) with enough rows that a product over it outlives a short
// deadline.
func extremesDB() *database.Database {
	db := database.NewDatabase()
	r := database.NewRelation("R", 3)
	for _, row := range [][3]int64{
		{math.MinInt64, -1, math.MaxInt64},
		{0, -42, 7},
		{math.MaxInt64, math.MinInt64, 0},
		{-9, 1 << 40, -(1 << 40)},
	} {
		r.Insert(database.Tuple{database.Value(row[0]), database.Value(row[1]), database.Value(row[2])})
	}
	u := database.NewRelation("U", 1)
	for i := 0; i < 1<<10; i++ {
		u.Insert(database.Tuple{database.Value(-i)})
	}
	db.AddRelation(r)
	db.AddRelation(u)
	return db
}

// TestWireGolden: streams, done pages, pages with a cursor and both
// terminal records, at arity 0, 1 and 3 over negative values and the int64
// extremes, are the bytes the map-based encoder wrote, and carry the
// literal lines below.
func TestWireGolden(t *testing.T) {
	h := newHandler(extremesDB(), serve.Config{})
	for _, tc := range []struct {
		name string
		body map[string]interface{}
		want []string // lines (or, for pages, fragments) the body must hold
	}{
		{"arity 0 stream", map[string]interface{}{"query": "Q() :- R(x,y,z).", "stream": true},
			[]string{"{\"answer\":[]}\n{\"count\":1,\"done\":true}\n"}},
		{"arity 0 done page", map[string]interface{}{"query": "Q() :- R(x,y,z)."},
			[]string{"{\"answers\":[[]],\"done\":true,\"generation\":"}},
		{"arity 1 stream", map[string]interface{}{"query": "Q(x) :- R(x,y,z).", "stream": true},
			[]string{"{\"answer\":[-9223372036854775808]}\n", "{\"answer\":[9223372036854775807]}\n", "{\"answer\":[-9]}\n", "{\"count\":4,\"done\":true}\n"}},
		{"arity 1 done page", map[string]interface{}{"query": "Q(x) :- R(x,y,z).", "limit": 4},
			[]string{"[-9223372036854775808]", "[9223372036854775807]", "],\"done\":true,\"generation\":"}},
		{"arity 3 stream", map[string]interface{}{"query": "Q(x,y,z) :- R(x,y,z).", "stream": true},
			[]string{"{\"answer\":[-9223372036854775808,-1,9223372036854775807]}\n", "{\"answer\":[9223372036854775807,-9223372036854775808,0]}\n", "{\"answer\":[-9,1099511627776,-1099511627776]}\n"}},
		{"arity 3 page with cursor", map[string]interface{}{"query": "Q(x,y,z) :- R(x,y,z).", "limit": 2},
			[]string{"{\"answers\":[[", "],\"done\":false,\"generation\":"}},
		{"truncated stream", map[string]interface{}{"query": "Q(x,y,z,u,v) :- R(x,y,z), U(u), U(v).", "stream": true, "deadline_ms": 5},
			[]string{",\"detail\":\"context deadline exceeded\",\"error\":\"deadline_exceeded\",\"truncated\":true}\n"}},
	} {
		// Bind first, so the truncated stream's deadline is spent streaming.
		postBody(t, h, "/v1/decide", map[string]interface{}{"query": tc.body["query"]})
		code, body := postBody(t, h, "/v1/enumerate", tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, code, body)
		}
		checkWire(t, body)
		for _, w := range tc.want {
			if !bytes.Contains(body, []byte(w)) {
				t.Errorf("%s: body lacks %q:\n%s", tc.name, w, body[:min(len(body), 400)])
			}
		}
	}
}

// TestPointResponseGolden: prepare, decide, count, mutate and healthz
// answer with the bytes json.NewEncoder wrote for the map each response
// used to be built as.
func TestPointResponseGolden(t *testing.T) {
	h := newHandler(extremesDB(), serve.Config{})
	const query = "Q(x) :- R(x,y,z)."
	encode := func(m map[string]interface{}) string {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(m)
		return buf.String()
	}
	check := func(what string, code int, got []byte, parent func(raw map[string]json.RawMessage) map[string]interface{}) {
		t.Helper()
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(got, &raw); code != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, %v: %s", what, code, err, got)
		}
		if want := encode(parent(raw)); string(got) != want {
			t.Fatalf("%s: wire bytes changed:\n got %s\nwant %s", what, got, want)
		}
	}
	str := func(raw json.RawMessage) (s string) { json.Unmarshal(raw, &s); return s }
	u64 := func(raw json.RawMessage) (g uint64) { json.Unmarshal(raw, &g); return g }
	flag := func(raw json.RawMessage) (b bool) { json.Unmarshal(raw, &b); return b }

	code, got := postBody(t, h, "/v1/prepare", map[string]interface{}{"query": query})
	check("prepare", code, got, func(raw map[string]json.RawMessage) map[string]interface{} {
		var engines map[string]string
		json.Unmarshal(raw["engines"], &engines)
		if len(engines) != 3 || engines["decide"] == "" || engines["count"] == "" || engines["enumerate"] == "" {
			t.Fatalf("prepare: engines %s", raw["engines"])
		}
		return map[string]interface{}{
			"fingerprint": str(raw["fingerprint"]),
			"handle":      str(raw["handle"]),
			"engines":     engines,
			"generation":  u64(raw["generation"]),
		}
	})
	gen := string(must(t, got, "generation"))
	code, got = postBody(t, h, "/v1/decide", map[string]interface{}{"query": query})
	check("decide", code, got, func(raw map[string]json.RawMessage) map[string]interface{} {
		return map[string]interface{}{"answer": flag(raw["answer"]), "generation": u64(raw["generation"])}
	})
	if string(got) != "{\"answer\":true,\"generation\":"+gen+"}\n" {
		t.Fatalf("decide: %s", got)
	}
	code, got = postBody(t, h, "/v1/count", map[string]interface{}{"query": query})
	check("count", code, got, func(raw map[string]json.RawMessage) map[string]interface{} {
		return map[string]interface{}{"count": str(raw["count"]), "generation": u64(raw["generation"])}
	})
	if string(got) != "{\"count\":\"4\",\"generation\":"+gen+"}\n" {
		t.Fatalf("count: %s", got)
	}
	code, got = postBody(t, h, "/v1/mutate", map[string]interface{}{"pred": "U", "op": "insert", "tuple": []int64{1}})
	check("mutate", code, got, func(raw map[string]json.RawMessage) map[string]interface{} {
		return map[string]interface{}{"applied": flag(raw["applied"]), "generation": u64(raw["generation"])}
	})
	if gen = string(must(t, got, "generation")); string(got) != "{\"applied\":true,\"generation\":"+gen+"}\n" {
		t.Fatalf("mutate: %s", got)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", strings.NewReader("")))
	check("healthz", rec.Code, rec.Body.Bytes(), func(raw map[string]json.RawMessage) map[string]interface{} {
		return map[string]interface{}{"status": str(raw["status"]), "generation": u64(raw["generation"])}
	})
	if rec.Body.String() != "{\"generation\":"+gen+",\"status\":\"ok\"}\n" {
		t.Fatalf("healthz: %s", rec.Body.String())
	}
}

// must returns the raw value of key in the JSON object body.
func must(t *testing.T, body []byte, key string) json.RawMessage {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil || raw[key] == nil {
		t.Fatalf("no %q in %s (%v)", key, body, err)
	}
	return raw[key]
}
