package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/database"
)

// discardWriter is a ResponseWriter that drops the body and counts the
// writes: what serving costs without a network.
type discardWriter struct {
	h      http.Header
	writes int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.writes++; return len(p), nil }
func (d *discardWriter) Flush()                      {}

const chainStream = `{"query": "Q(x,y) :- A(x,y), B(y,z).", "stream": true}`

// warmStream builds a server over an n-answer constant-delay statement,
// streams it once so the statement is bound, and returns the request that
// streams it again.
func warmStream(tb testing.TB, n int) func(*discardWriter) {
	h := New(bindChainDB(n+1), nil, Config{}).Handler()
	serve := func(d *discardWriter) {
		h.ServeHTTP(d, httptest.NewRequest("POST", "/v1/enumerate", strings.NewReader(chainStream)))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/enumerate", strings.NewReader(chainStream)))
	if want := []byte(`{"count":` + strconv.Itoa(n) + `,"done":true}`); !bytes.Contains(rec.Body.Bytes(), want) {
		tb.Fatalf("the warm-up stream did not end with %s", want)
	}
	return serve
}

// TestStreamAllocs pins the stream's encoder at 0 allocations per answer: a
// warm stream of 2¹⁶ answers may allocate no more than one of 2¹² does,
// plus at most one per extra chunk written.
func TestStreamAllocs(t *testing.T) {
	measure := func(n int) (allocs float64, chunks int) {
		serve := warmStream(t, n)
		d := &discardWriter{h: http.Header{}}
		const runs = 5
		allocs = testing.AllocsPerRun(runs, func() { serve(d) })
		return allocs, d.writes / (runs + 1) // AllocsPerRun adds a warm-up run
	}
	small, smallChunks := measure(1 << 12)
	big, bigChunks := measure(1 << 16)
	t.Logf("allocs per stream: %.0f at 2^12 answers (%d chunks), %.0f at 2^16 (%d chunks)", small, smallChunks, big, bigChunks)
	if big-small > float64(bigChunks-smallChunks) {
		t.Fatalf("a 2^16-answer stream allocates %.0f times, a 2^12 one %.0f: more than the %d extra chunks — answers allocate",
			big, small, bigChunks-smallChunks)
	}
}

// BenchmarkServeStream: one warm 2¹⁶-answer constant-delay stream through
// the handler, encoded and written to a discarding writer.
func BenchmarkServeStream(b *testing.B) {
	const n = 1 << 16
	serve := warmStream(b, n)
	d := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(d)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/answer")
}

// BenchmarkServePage1024: the 1024-answer pages of a 2¹⁶-answer
// constant-delay statement, each resumed by its cursor, in turn.
func BenchmarkServePage1024(b *testing.B) {
	const n, limit = 1 << 16, 1024
	h := New(bindChainDB(n+1), nil, Config{}).Handler()
	var bodies [][]byte
	for cursor := ""; ; {
		body, _ := json.Marshal(queryRequest{Query: "Q(x,y) :- A(x,y), B(y,z).", Cursor: cursor, Limit: limit})
		bodies = append(bodies, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(body)))
		var page struct {
			Done bool   `json:"done"`
			Next string `json:"next_cursor"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			b.Fatalf("page %d: %v", len(bodies), err)
		}
		if page.Done {
			break
		}
		cursor = page.Next
	}
	if len(bodies) != n/limit {
		b.Fatalf("%d pages, want %d", len(bodies), n/limit)
	}
	d := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(d, httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(bodies[i%len(bodies)])))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/limit, "ns/answer")
}

// The deep-walk shapes: a two-hop join that is not free-connex (the
// linear-delay route) and a labelled edge with x ≠ y (the ACQ≠ route).
const (
	mmQuery   = "Q(x,z) :- E(x,y), E(y,z)."
	neq2Query = "Q(x,y) :- E(x,y), L(y), x != y."
)

// edgeLabelDB builds E, n random edges over n/4 nodes, and L, the even
// nodes, from a fixed seed.
func edgeLabelDB(n int) *database.Database {
	rng := rand.New(rand.NewSource(int64(n)))
	e := database.NewRelation("E", 2)
	l := database.NewRelation("L", 1)
	nodes := max(n/4, 2)
	for i := 0; i < n; i++ {
		e.InsertValues(database.Value(rng.Intn(nodes)), database.Value(rng.Intn(nodes)))
	}
	for v := 0; v < nodes; v += 2 {
		l.InsertValues(database.Value(v))
	}
	e.Dedup()
	db := database.NewDatabase()
	db.AddRelation(e)
	db.AddRelation(l)
	return db
}

// BenchmarkServePageDeep: the first page of a walk and its last full page,
// resumed by the cursor the page before it handed out, on the linear-delay
// route (mm over 2¹² edges, pages of 16), the ACQ≠ route (neq2 over 2¹⁵
// edges, pages of 1024) and the backtracking route (a triangle over the
// clique on 32 nodes, 29 760 answers, pages of 1024). A route-native
// position makes the deep page cost about what the first does.
func BenchmarkServePageDeep(b *testing.B) {
	for _, c := range []struct {
		name, query string
		edges       int
		limit       int
		clique      int // nodes of the clique T beside E and L, 0 for none
	}{
		{"mm", mmQuery, 1 << 12, 16, 0},
		{"neq2", neq2Query, 1 << 15, 1024, 0},
		{"tri", "Q(x,y,z) :- T(x,y), T(y,z), T(z,x).", 16, 1024, 32},
	} {
		db := edgeLabelDB(c.edges)
		if c.clique > 0 {
			db.AddRelation(cliqueRelation("T", c.clique))
		}
		h := New(db, nil, Config{}).Handler()
		var bodies [][]byte
		for cursor := ""; ; {
			body, _ := json.Marshal(queryRequest{Query: c.query, Cursor: cursor, Limit: c.limit})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(body)))
			var page struct {
				Answers [][]int64 `json:"answers"`
				Done    bool      `json:"done"`
				Next    string    `json:"next_cursor"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				b.Fatalf("%s page %d: %v", c.name, len(bodies), err)
			}
			if len(page.Answers) < c.limit {
				break
			}
			bodies = append(bodies, body)
			if page.Done {
				break
			}
			cursor = page.Next
		}
		if len(bodies) < 8 {
			b.Fatalf("%s: a walk of %d full pages is too short to go deep", c.name, len(bodies))
		}
		for _, p := range []struct {
			name string
			body []byte
		}{{"first", bodies[0]}, {"deep", bodies[len(bodies)-1]}} {
			b.Run(c.name+"/"+p.name, func(b *testing.B) {
				d := &discardWriter{h: http.Header{}}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					h.ServeHTTP(d, httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(p.body)))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.limit), "ns/answer")
			})
		}
	}
}
