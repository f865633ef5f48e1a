package experiments

// The serving experiments: E21 (throughput vs p99 latency under open-loop
// traffic) and E23 (a cold-bind storm against a narrow bind lane). Each row
// starts a fresh serve.Server over a seeded workload behind httptest and
// offers it open-loop Poisson arrivals — the schedule never waits for a
// response, so saturation shows as latency and 429 backpressure, not as a
// client that politely slows down.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/qgen"
	"repro/internal/serve"
)

// workload is a seeded serving workload: queries over one shared database
// plus a replayable mutation script. The queries alternate free-connex and
// general acyclic shapes, so both the constant-delay and the linear-delay
// serving routes see traffic; each query's predicates are namespaced (q0_R1,
// q1_R0, …) because the generator draws names from a shared pool with
// per-query arities. The script has more mutations than the longest row
// sends, so none repeats.
type workload struct {
	queries   []string
	db        *database.Database
	mutations []qgen.Mutation
}

const workloadQueries = 6

func newWorkload() *workload {
	rng := rand.New(rand.NewSource(42))
	cfg := qgen.Default()
	var queries []*logic.CQ
	for len(queries) < workloadQueries {
		var q *logic.CQ
		if len(queries)%2 == 0 {
			q = qgen.FreeConnexCQ(rng, cfg)
		} else {
			q = qgen.AcyclicCQ(rng, cfg)
		}
		if len(q.Head) == 0 {
			continue
		}
		for j := range q.Atoms {
			q.Atoms[j].Pred = fmt.Sprintf("q%d_%s", len(queries), q.Atoms[j].Pred)
		}
		queries = append(queries, q)
	}
	db := qgen.DatabaseFor(rng, cfg, queries...)
	wl := &workload{db: db, mutations: qgen.MutationScript(rng, cfg, db, 1<<12)}
	for _, q := range queries {
		wl.queries = append(wl.queries, q.String())
	}
	return wl
}

// The warm traffic: 150 req/s in E23, a sweep in E21, always the mix
// decide=4 / enumerate=4 / count=1 / mutate=1. Roughly one request in ten
// mutates, so the statement cache is refreshed in place under concurrent
// reads and in-flight cursors die with 410 and restart.
const warmRate = 150

var mix = strings.Fields("decide decide decide decide enumerate enumerate enumerate enumerate count mutate")

// The storm: fresh 4-atom chains over storm_edge, a 4096-row cycle no
// workload query reads. Binds of the generated queries finish in
// microseconds, too fast to stage a storm with; one cold bind of a chain
// over storm_edge costs real semijoin work while its compile stays cheap.
// The 2 ms deadline dooms a storm request that would have to queue.
const (
	stormAtoms      = 4
	stormRows       = 1 << 12
	stormDeadlineMS = 2
)

func stormEdge() *database.Relation {
	r := database.NewRelation("storm_edge", 2)
	for i := 0; i < stormRows; i++ {
		r.InsertValues(database.Value(i), database.Value((i+1)%stormRows))
	}
	return r
}

// outcome classifies one response. 429, 410, 503 and 504 are protocol
// outcomes a client is built to meet; malformed is anything else — a
// transport error, another status, or a 200 missing a field.
type outcome int

const (
	answered outcome = iota
	rejected429
	stale410
	shed503
	expired504
	malformed
	numOutcomes
)

var statusOutcome = map[int]outcome{200: answered, 429: rejected429, 410: stale410, 503: shed503, 504: expired504}

// client drives one trial. Warm traffic names its statements by handle:
// prepared once per query, re-prepared when the server answers 410.
type client struct {
	http     *http.Client
	base     string
	wl       *workload
	mu       sync.Mutex
	handles  []string
	mutation atomic.Int64
	storms   atomic.Int64
}

// post sends one JSON request and classifies the response; an answered
// request must carry every field in want.
func (c *client) post(path string, body map[string]any, want ...string) (map[string]json.RawMessage, outcome) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, malformed
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, malformed
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	oc, known := statusOutcome[resp.StatusCode]
	var out map[string]json.RawMessage
	if err != nil || !known || json.Unmarshal(data, &out) != nil {
		return nil, malformed
	}
	for _, f := range want {
		if oc == answered && out[f] == nil {
			return nil, malformed
		}
	}
	return out, oc
}

// handle returns query qi's statement handle, preparing it on first use.
func (c *client) handle(qi int) (string, outcome) {
	c.mu.Lock()
	h := c.handles[qi]
	c.mu.Unlock()
	if h != "" {
		return h, answered
	}
	out, oc := c.post("/v1/prepare", map[string]any{"query": c.wl.queries[qi]}, "handle")
	if oc != answered {
		return "", oc
	}
	if json.Unmarshal(out["handle"], &h) != nil || h == "" {
		return "", malformed
	}
	c.mu.Lock()
	c.handles[qi] = h
	c.mu.Unlock()
	return h, answered
}

// answerFields are the fields a 200 of each query endpoint must carry.
var answerFields = map[string][]string{"decide": {"answer", "generation"}, "count": {"count", "generation"}, "enumerate": {"answers", "done"}}

// request performs one operation of the warm mix. An enumerate reads one
// page, and with follow a second one through its cursor. A 410 — an evicted
// handle, or a cursor the database moved past — re-prepares and restarts
// once, the documented client protocol.
func (c *client) request(class string, qi int, follow bool) outcome {
	if class == "mutate" {
		m := c.wl.mutations[c.mutation.Add(1)%int64(len(c.wl.mutations))]
		op := "delete"
		if m.Insert {
			op = "insert"
		}
		_, oc := c.post("/v1/mutate", map[string]any{"pred": m.Pred, "op": op, "tuple": m.Tuple}, "applied", "generation")
		return oc
	}
	cursor, restarted := "", false
	for page := 0; ; page++ {
		h, oc := c.handle(qi)
		if oc != answered {
			return oc
		}
		req := map[string]any{"handle": h}
		if class == "enumerate" {
			req["limit"] = 64
			if cursor != "" {
				req["cursor"] = cursor
			}
		}
		out, oc := c.post("/v1/"+class, req, answerFields[class]...)
		if oc == stale410 && !restarted {
			restarted, cursor, page = true, "", -1
			c.mu.Lock()
			c.handles[qi] = ""
			c.mu.Unlock()
			continue
		}
		if oc != answered || class != "enumerate" {
			return oc
		}
		var done bool
		if json.Unmarshal(out["done"], &done) != nil {
			return malformed
		}
		if done || !follow || page == 1 {
			return answered
		}
		if json.Unmarshal(out["next_cursor"], &cursor) != nil {
			return malformed
		}
	}
}

// storm offers one never-seen statement: the head name is fresh, and the
// fingerprint folds it, so every storm request is a guaranteed cold bind.
func (c *client) storm() outcome {
	var b strings.Builder
	fmt.Fprintf(&b, "Storm%d(x0) :- ", c.storms.Add(1))
	for i := 0; i < stormAtoms; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "storm_edge(x%d,x%d)", i, i+1)
	}
	b.WriteString(".")
	_, oc := c.post("/v1/decide", map[string]any{"query": b.String(), "deadline_ms": stormDeadlineMS}, answerFields["decide"]...)
	return oc
}

// Traffic kinds of a trial.
const (
	warmKind = iota
	stormKind
)

// trial is what one row's traffic met, by kind: the latencies of answered
// requests and the count of every outcome.
type trial struct {
	lat      [2]obs.Histogram
	outcomes [2][numOutcomes]atomic.Int64
	elapsed  time.Duration
	stats    serve.Stats // the server's own counters at the end
}

func (t *trial) n(kind int, oc outcome) int64 { return t.outcomes[kind][oc].Load() }

func (t *trial) all(oc outcome) int64 { return t.n(warmKind, oc) + t.n(stormKind, oc) }

// check is the invariant both experiments share: no malformed or unexpected
// response, warm or storm.
func (t *trial) check() error {
	if bad := t.all(malformed); bad > 0 {
		return fmt.Errorf("%d malformed or unexpected responses", bad)
	}
	return nil
}

// offer schedules Poisson arrivals at rate req/s until end. next draws an
// arrival's request on the scheduling goroutine; it runs in its own.
func (t *trial) offer(kind int, rng *rand.Rand, rate float64, end time.Time, wg *sync.WaitGroup, next func() func() outcome) {
	for time.Now().Before(end) {
		req := next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			oc := req()
			if oc == answered {
				t.lat[kind].Observe(time.Since(t0).Nanoseconds())
			}
			t.outcomes[kind][oc].Add(1)
		}()
		time.Sleep(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
	}
}

// serveTrial serves wl under cfg for d, offering the warm mix at rate req/s
// and, when stormRate > 0, the cold-bind storm beside it.
func serveTrial(wl *workload, cfg serve.Config, rate, stormRate float64, d time.Duration) *trial {
	srv := serve.New(wl.db, nil, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{
		http: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}},
		base: ts.URL, wl: wl, handles: make([]string, len(wl.queries)),
	}
	defer c.http.CloseIdleConnections()
	t := &trial{}
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	if stormRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.offer(stormKind, rand.New(rand.NewSource(2)), stormRate, end, &wg, func() func() outcome { return c.storm })
		}()
	}
	rng := rand.New(rand.NewSource(1))
	t.offer(warmKind, rng, rate, end, &wg, func() func() outcome {
		class, qi, follow := mix[rng.Intn(len(mix))], rng.Intn(len(wl.queries)), rng.Intn(2) == 0
		return func() outcome { return c.request(class, qi, follow) }
	})
	wg.Wait()
	t.elapsed = time.Since(start)
	t.stats = srv.Stats()
	return t
}

// trialSeconds is each row's traffic window.
func trialSeconds(r *Run) time.Duration { return time.Duration(r.Pick(10, 2, 0)) * time.Second }

var e21 = Experiment{
	ID: "E21", Title: "Extension: serving — throughput vs p99 latency under open-loop traffic",
	Tables: []Table{{
		Param: "rate",
		Cols:  []string{"rate:6", "achieved:9.1", "p50:9", "p99:9", "max:9", "429:5", "410:5", "503:5", "504:5", "errors:6"},
		Sizes: sizes([]int{25, 50, 100, 200, 400, 800}, []int{50, 200}, nil),
		Setup: func(r *Run) Sweep {
			d := trialSeconds(r)
			r.Printf("%d seeded queries behind serve.Handler, named by handle; Poisson arrivals of the mix\n", workloadQueries)
			r.Printf("decide=4/enumerate=4/count=1/mutate=1 at each offered rate (req/s) for %v\n", d)
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				wl := newWorkload()
				var t *trial
				return []Op{run("serve", func() error {
						t = serveTrial(wl, serve.Config{}, float64(n), 0, d)
						return nil
					})}, func([]Measured) ([]any, error) {
						achieved := float64(t.n(warmKind, answered)) / t.elapsed.Seconds()
						h := &t.lat[warmKind]
						p50, p99, peak := h.QuantileInterpolated(0.5), h.QuantileInterpolated(0.99), h.Max()
						r.RecordAt(n, "achieved_rps", achieved, "p50_ns", p50, "p99_ns", p99, "max_ns", peak,
							"rejected_429", t.n(warmKind, rejected429), "stale_410", t.n(warmKind, stale410))
						return []any{n, achieved, time.Duration(p50), time.Duration(p99), time.Duration(peak),
							t.n(warmKind, rejected429), t.n(warmKind, stale410), t.n(warmKind, shed503), t.n(warmKind, expired504), t.n(warmKind, malformed)}, t.check()
					}, nil
			}}
		},
	}},
	Shape: []string{"shape: p50 and p99 stay flat across the offered-rate sweep while achieved climbs —",
		"preprocessing is amortized into the warm statement cache, so each request does",
		"per-answer work only and load moves throughput, not tail latency; saturation is",
		"answered with 429s, not queueing."},
}

var e23 = Experiment{
	ID: "E23", Title: "Extension: bind storms — the deadline-aware bind lane sheds a cold-bind storm instead of head-of-line blocking",
	Tables: []Table{{
		Param: "storm",
		Cols:  []string{"storm:6", "achieved:9.1", "warmP50:9", "warmP99:9", "429:5", "stormOK:8", "shed503:8", "504:5", "coalesced:10", "errors:6"},
		Sizes: sizes([]int{120, 0}, []int{120, 0}, nil),
		Setup: func(r *Run) Sweep {
			d := trialSeconds(r)
			r.Printf("the E21 mix at %d req/s by handle on a 1-worker, 4-deep bind lane, for %v; beside it\n", warmRate, d)
			r.Printf("a storm of fresh %d-atom chains over storm_edge at the given rate (req/s), deadline_ms %d\n", stormAtoms, stormDeadlineMS)
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				wl := newWorkload()
				wl.db.AddRelation(stormEdge())
				var t *trial
				return []Op{run("serve", func() error {
						t = serveTrial(wl, serve.Config{BindWorkers: 1, BindQueueDepth: 4}, warmRate, float64(n), d)
						return nil
					})}, func([]Measured) ([]any, error) {
						achieved := float64(t.n(warmKind, answered)) / t.elapsed.Seconds()
						h, shed := &t.lat[warmKind], t.stats.Shed503
						p50, p99 := h.QuantileInterpolated(0.5), h.QuantileInterpolated(0.99)
						r.RecordAt(n, "achieved_rps", achieved, "warm_p50_ns", p50, "warm_p99_ns", p99, "shed_503", shed,
							"storm_ok", t.n(stormKind, answered), "binds_coalesced", t.stats.BindsCoalesced)
						cells := []any{n, achieved, time.Duration(p50), time.Duration(p99), t.all(rejected429),
							t.n(stormKind, answered), shed, t.all(expired504), t.stats.BindsCoalesced, t.all(malformed)}
						switch {
						case n > 0 && shed == 0:
							return cells, fmt.Errorf("the bind storm was never shed (shed_503 = 0)")
						case n == 0 && shed > 0:
							return cells, fmt.Errorf("%d requests shed without a storm: shedding must vanish in the control row", shed)
						}
						return cells, t.check()
					}, nil
			}}
		},
	}},
	Shape: []string{"shape: under the storm the lane sheds doomed cold binds with 503 before any bind",
		"work (shed503 > 0) while warm traffic keeps its rate with no 429s; in the storm = 0",
		"control nothing is shed — the bind is the one phase with classifiable cost, so it",
		"is the phase that gets shed."},
}
