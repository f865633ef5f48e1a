package serve_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/qgen"
	"repro/internal/serve"
)

// Every failure report names the seed; replay a single instance with:
//
//	go test ./internal/serve -run TestServePaginationDifferential -seed=17
var seedFlag = flag.Int64("seed", -1, "replay a single differential seed")

// testKey pins cursor authentication so cursors can be minted and tampered
// with deterministically across servers in one test.
var testKey = bytes.Repeat([]byte{0x42}, 32)

func newHandler(db *database.Database, cfg serve.Config) http.Handler {
	if len(cfg.CursorKey) == 0 {
		cfg.CursorKey = testKey
	}
	return serve.New(db, nil, cfg).Handler()
}

// postJSON drives the mux in-process: no TCP, just the handler.
func postJSON(t *testing.T, h http.Handler, path string, body interface{}) (int, map[string]json.RawMessage) {
	t.Helper()
	code, raw := postBody(t, h, path, body)
	var out map[string]json.RawMessage
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST %s: body is not JSON: %v\n%s", path, err, raw)
		}
	}
	return code, out
}

type answerSet map[string]int

func keyOf(t []int64) string { return fmt.Sprint(t) }

func toSet(answers [][]int64) answerSet {
	s := answerSet{}
	for _, a := range answers {
		s[keyOf(a)]++
	}
	return s
}

func oracleSet(t *testing.T, db *database.Database, q *logic.CQ) answerSet {
	t.Helper()
	want, err := oracle.Eval(db, q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	s := answerSet{}
	for _, tp := range want {
		ints := make([]int64, len(tp))
		for i, v := range tp {
			ints[i] = int64(v)
		}
		s[keyOf(ints)]++
	}
	return s
}

func sameSets(a, b answerSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// walkPages paginates /v1/enumerate to exhaustion, asserting every page is
// well-formed and no answer is duplicated across pages.
func walkPages(t *testing.T, h http.Handler, query string, pageSize int) answerSet {
	t.Helper()
	return walkPagesBody(t, h, map[string]interface{}{"query": query}, pageSize)
}

// streamAll drains /v1/enumerate in stream mode (NDJSON) to one set.
func streamAll(t *testing.T, h http.Handler, query string) answerSet {
	t.Helper()
	answers, tail := streamInOrder(t, h, map[string]interface{}{"query": query})
	if !tail.Done {
		t.Fatalf("stream ended without a done line: %+v", tail)
	}
	return toSet(answers)
}

// The three serving routes under differential test. Each builder may give
// up for a seed whose generated query does not land on the wanted engine.
type routeCase struct {
	name   string
	engine plan.Engine
	build  func(rng *rand.Rand, cfg qgen.Config) *logic.CQ
}

func engineOf(q *logic.CQ) plan.Engine {
	p, err := plan.Compile(q)
	if err != nil {
		return ""
	}
	return p.EnumerateEngine
}

var routes = []routeCase{
	{"constant-delay", plan.EngineConstantDelay, func(rng *rand.Rand, cfg qgen.Config) *logic.CQ {
		for i := 0; i < 40; i++ {
			q := qgen.FreeConnexCQ(rng, cfg)
			if len(q.Head) > 0 && engineOf(q) == plan.EngineConstantDelay {
				return q
			}
		}
		return nil
	}},
	{"linear-delay", plan.EngineLinearDelay, func(rng *rand.Rand, cfg qgen.Config) *logic.CQ {
		for i := 0; i < 40; i++ {
			q := qgen.AcyclicCQ(rng, cfg)
			if len(q.Head) > 0 && engineOf(q) == plan.EngineLinearDelay {
				return q
			}
		}
		return nil
	}},
	{"neq-enum", plan.EngineNeqEnum, func(rng *rand.Rand, cfg qgen.Config) *logic.CQ {
		for i := 0; i < 40; i++ {
			q := qgen.FreeConnexCQ(rng, cfg)
			if len(q.Head) < 2 {
				continue
			}
			q.Comparisons = append(q.Comparisons, logic.Comparison{
				Op: logic.NEQ, L: logic.V(q.Head[0]), R: logic.V(q.Head[1]),
			})
			if engineOf(q) == plan.EngineNeqEnum {
				return q
			}
		}
		return nil
	}},
}

// TestServePaginationDifferential: for 250 seeded instances per route,
// cursor-resumed pagination at several page sizes (including 1) and the
// NDJSON stream each produce exactly the oracle's answer set, every page and
// stream line in the bytes the map-based encoder wrote (pagesInOrder and
// streamInOrder check each against parentForm); and a cursor
// that survives a mutation is refused as stale, after which a restarted
// pagination matches the oracle on the mutated database.
func TestServePaginationDifferential(t *testing.T) {
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
			// The query must survive the wire: the server re-parses text.
			if _, err := logic.ParseCQ(q.String()); err != nil {
				t.Fatalf("seed %d %s: query %q does not round-trip: %v", seed, rc.name, q, err)
			}
			db := qgen.DatabaseFor(rng, cfg, q)
			h := newHandler(db, serve.Config{})
			want := oracleSet(t, db, q)

			for _, pageSize := range []int{1, 3, 7, 16} {
				got := walkPages(t, h, q.String(), pageSize)
				if !sameSets(got, want) {
					t.Fatalf("seed %d %s: pages(size %d) ≠ one-shot (%d vs %d answers)\nreplay: go test ./internal/serve -run %s -seed=%d\n%s",
						seed, rc.name, pageSize, len(got), len(want), t.Name(), seed, qgen.FormatInstance(q, db))
				}
			}
			if got := streamAll(t, h, q.String()); !sameSets(got, want) {
				t.Fatalf("seed %d %s: stream ≠ oracle\nreplay: go test ./internal/serve -run %s -seed=%d",
					seed, rc.name, t.Name(), seed)
			}
			// One generation, one order: pages resumed through cursors and
			// the stream serve the same sequence, position for position.
			pages := pagesInOrder(t, h, map[string]interface{}{"query": q.String()}, "", 3)
			stream, _ := streamInOrder(t, h, map[string]interface{}{"query": q.String()})
			if len(pages) != len(stream) {
				t.Fatalf("seed %d %s: %d answers in pages, %d in the stream", seed, rc.name, len(pages), len(stream))
			}
			for i := range stream {
				if keyOf(pages[i]) != keyOf(stream[i]) {
					t.Fatalf("seed %d %s: position %d: pages have %v, the stream %v\nreplay: go test ./internal/serve -run %s -seed=%d",
						seed, rc.name, i, pages[i], stream[i], t.Name(), seed)
				}
			}

			// Resume-after-mutation: a mid-pagination cursor dies with 410
			// once the database moves; restarting from scratch reflects the
			// new generation (the refreshed cache entry, not a stale one).
			if script := qgen.MutationScript(rng, cfg, db, 1); len(script) == 1 {
				code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{
					"query": q.String(), "limit": 2,
				})
				if code != http.StatusOK {
					t.Fatalf("seed %d %s: first page: status %d", seed, rc.name, code)
				}
				var done bool
				var genBefore uint64
				json.Unmarshal(out["done"], &done)
				json.Unmarshal(out["generation"], &genBefore)
				m := script[0]
				op := "delete"
				if m.Insert {
					op = "insert"
				}
				tuple := make([]int64, len(m.Tuple))
				for i, v := range m.Tuple {
					tuple[i] = int64(v)
				}
				code, mout := postJSON(t, h, "/v1/mutate", map[string]interface{}{
					"pred": m.Pred, "op": op, "tuple": tuple,
				})
				if code != http.StatusOK {
					t.Fatalf("seed %d %s: mutate: status %d", seed, rc.name, code)
				}
				var genAfter uint64
				json.Unmarshal(mout["generation"], &genAfter)
				// A duplicate insert or absent delete leaves the generation
				// alone; the cursor only dies when the database moved.
				if !done && genAfter != genBefore {
					var cur string
					json.Unmarshal(out["next_cursor"], &cur)
					code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{
						"query": q.String(), "cursor": cur,
					})
					if code != http.StatusGone {
						t.Fatalf("seed %d %s: resumed a cursor across a mutation: status %d %s",
							seed, rc.name, code, out["error"])
					}
				}
				mutated := oracleSet(t, db, q)
				if got := walkPages(t, h, q.String(), 3); !sameSets(got, mutated) {
					t.Fatalf("seed %d %s: restart after mutation ≠ oracle on mutated db\nreplay: go test ./internal/serve -run %s -seed=%d",
						seed, rc.name, t.Name(), seed)
				}
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
