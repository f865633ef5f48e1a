package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/serve"
)

// traceFile is what bench/out/<workload>.trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	// Handler spans come from the first pass, through serve's handler;
	// stage spans from the second, through the modules one call at a time.
	// Both passes replay the same ops on their own copy of the database.
	Handler []span `json:"handler_spans"`
	Stages  []span `json:"stage_spans"`
}

// replay runs the first wl.replayOps ops of client 0's script three times in
// this process, each on a freshly opened database: through serve's handler,
// stage by stage with spans, and stage by stage without. It returns the
// per-layer values it can derive and the trace.
func replay(o runOpts, w *world) (map[string]float64, *traceFile, error) {
	path := w.data.snap
	if o.wl.textBoot {
		path = w.data.text
	}
	ops := make([]op, o.wl.replayOps)
	next := o.wl.script(w, 0)
	for i := range ops {
		ops[i] = next()
	}

	// Pass 1: the handler, checked by the same client code as the real run.
	db, dict, closer, err := core.LoadPath(path)
	if err != nil {
		return nil, nil, err
	}
	h := serve.New(db, dict, serve.Config{}).Handler()
	handles, err := warmStatements(o.wl, w, func(path string, req, v interface{}) error {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST %s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return json.Unmarshal(rec.Body.Bytes(), v)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("replay set-up: %w", err)
	}
	// One client, so the churn checks are exact.
	solo := newWorld(w.seed, w.data, o.wl, 1)
	c := newClient(0, solo, o.wl, handlerTransport{h}, 1, time.Now())
	c.handles = handles
	tf := &traceFile{Workload: o.wl.name, Seed: o.seed, Ops: len(ops)}
	handler := make([]int64, len(ops))
	for i, op := range ops {
		r := c.do(op)
		if c.firstErr != nil {
			return nil, nil, fmt.Errorf("replay through the handler: %w", c.firstErr)
		}
		handler[i] = r.end - r.start
		tf.Handler = append(tf.Handler, span{ID: int32(i), Parent: -1, Op: int32(i), Name: "serve.handler",
			Attr: classNames[op.class], Start: r.start, End: r.end, Answers: r.answers})
	}
	closer.Close()

	// Passes 2 and 3: the stages, with and without spans. The pass without
	// runs the engines exactly as the handler does (no step counter), so
	// its per-op times are what handler times are compared with.
	var staged [2]time.Duration
	bare := make([]int64, len(ops))
	var tr *tracer
	for pass, on := range []bool{true, false} {
		db, _, closer, err := core.LoadPath(path)
		if err != nil {
			return nil, nil, err
		}
		t := &tracer{t0: time.Now()}
		if on {
			t.steps = &delay.Counter{}
			tr = t
		}
		st := newStager(db, t, o.wl.byHandle)
		if err := stagedWarm(st, o.wl, w); err != nil {
			return nil, nil, fmt.Errorf("staged replay set-up: %w", err)
		}
		t.on = on
		start := time.Now()
		for i, op := range ops {
			n, took, err := st.exec(i, op)
			if err != nil {
				return nil, nil, fmt.Errorf("staged replay of %s: %w", op, err)
			}
			if !on {
				bare[i] = took.Nanoseconds()
			}
			if want := tf.Handler[i].Answers; n != want {
				return nil, nil, fmt.Errorf("staged replay of %s produced %d answers, the handler %d", op, n, want)
			}
		}
		staged[pass] = time.Since(start)
		closer.Close()
	}
	tf.Stages = tr.spans
	return replayMetrics(ops, handler, bare, tr.spans, staged), tf, nil
}

// stagedWarm mirrors warmStatements for the staged passes, unrecorded.
func stagedWarm(st *stager, wl *workload, w *world) error {
	for _, s := range wl.warm {
		if _, _, err := st.exec(-1, op{kind: opCount, class: clCount, st: s}); err != nil {
			return err
		}
	}
	if wl.mutates {
		probe := [2]int64{int64(w.data.sc.dom(pairS)) + 1000, 1}
		for _, insert := range []bool{true, false} {
			for _, o := range []op{{kind: opMutate, insert: insert, tuple: probe}, {kind: opCount, class: clCount, st: stFC2s}} {
				if _, _, err := st.exec(-1, o); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// replayMetrics derives the per-layer values the replay can see. handler[i]
// is op i's time in serve's handler, bare[i] its time through the stages
// without spans, spans the traced pass's trace.
func replayMetrics(ops []op, handler, bare []int64, spans []span, staged [2]time.Duration) map[string]float64 {
	m := map[string]float64{}
	roots := map[int32]span{}
	for _, s := range spans {
		if s.Parent < 0 {
			roots[s.Op] = s
		}
	}
	// serve.self: what the handler spends beyond the engine calls the
	// staged pass repeats: decode, admission, locks, cursors, encode.
	byClass := map[class][2][]int64{}
	var streamSelf, streamAnswers int64
	for i, o := range ops {
		self := handler[i] - bare[i]
		v := byClass[o.class]
		v[0], v[1] = append(v[0], handler[i]), append(v[1], self)
		byClass[o.class] = v
		if o.kind == opStream {
			streamSelf += self
			streamAnswers += roots[int32(i)].Answers
		}
	}
	for cl, v := range byClass {
		m["serve.handler_ns."+classNames[cl]] = medianInt(v[0])
		m["serve.self_ns."+classNames[cl]] = medianInt(v[1])
	}
	if streamAnswers > 0 {
		m["serve.encode_ns_per_answer"] = float64(streamSelf) / float64(streamAnswers)
	}
	skip, next := statsOf(spans, named("cq.skip")), statsOf(spans, func(s span) bool {
		return s.Name == "cq.next" && roots[s.Op].Attr != classNames[clStream]
	})
	if next.answers > 0 {
		m["serve.skipped_per_answer"] = float64(skip.answers) / float64(next.answers)
	}
	for metric, name := range map[string]string{
		"logic.parse_ns":            "logic.parse",
		"plan.compile_hit_ns":       "plan.compile_hit",
		"plan.compile_miss_ns":      "plan.compile_miss",
		"plan.peek_ns":              "plan.peek",
		"cq.random_access_build_ns": "cq.random_access_build",
		"counting.count_ns":         "counting.count",
	} {
		m[metric] = statsOf(spans, named(name)).median
	}
	m["cq.random_access_ns"] = perAnswer(statsOf(spans, named("cq.random_access")))
	bystander := func(s span) bool { return ops[s.Op].role == roleBystander }
	refresh := statsOf(spans, func(s span) bool { return s.Name == "plan.refresh" && !bystander(s) })
	m["plan.refresh_ns"] = refresh.median
	m["plan.refresh_bystander_ns"] = statsOf(spans, func(s span) bool { return s.Name == "plan.refresh" && bystander(s) }).median
	if refresh.n > 0 {
		delta := statsOf(spans, func(s span) bool { return s.Name == "plan.refresh" && !bystander(s) && s.Attr == "delta" })
		m["plan.refresh_delta_share"] = float64(delta.n) / float64(refresh.n)
	}
	if staged[1] > 0 {
		m["trace.overhead_share"] = float64(staged[0]-staged[1]) / float64(staged[1])
	}
	return m
}

// writeTrace writes the trace beside the other outputs of the run.
func writeTrace(root string, tf *traceFile) error {
	for _, spans := range [][]span{tf.Handler, tf.Stages} {
		for i, self := range selfTimes(spans) {
			spans[i].Self = self
		}
	}
	return writeJSON(filepath.Join(root, "bench", "out", tf.Workload+".trace.json"), tf)
}
