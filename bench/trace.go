package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/plan"
)

// The traced replay records spans from outside the modules: each span wraps
// one call into a module's public function. Spans inside qservd are a later
// change (ROADMAP item 3); until then the real server is timed only from
// its edges and the layer times come from this in-process replay.

// span is one timed call. Spans of one op share its index; Parent is the
// enclosing span's ID, -1 for an op's root.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
	Name    string `json:"name"`
	Attr    string `json:"attr,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`           // End-Start minus the children's; set when the trace is written
	Steps   int64  `json:"steps,omitempty"`   // counted RAM steps ticked inside the span
	Answers int64  `json:"answers,omitempty"` // answers produced, skipped or rows written
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// With on false begin and end do nothing, which is how the replay's own
// overhead is measured.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int32
	op    int32
	steps *delay.Counter
}

func (t *tracer) begin(name, attr string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Attr: attr,
		Steps: -t.steps.Steps(), Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32, answers int64) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Steps += t.steps.Steps()
	s.Answers = answers
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// stager executes ops stage by stage through the modules' public functions,
// the way serve's handlers chain them, with a span around every call.
type stager struct {
	db      *database.Database
	cache   *plan.Cache
	tr      *tracer
	known   map[*plan.Plan]*plan.Prepared
	plans   map[string]*plan.Plan // by statement text, for handle ops
	seen    map[string]bool       // statement texts compiled before
	counted map[*plan.Prepared]uint64
	raBuilt map[*plan.Prepared]uint64
	offset  map[*stmt]int64
	handles bool
}

func newStager(db *database.Database, tr *tracer, handles bool) *stager {
	cache := plan.NewCache()
	cache.SetMaxPrepared(256) // serve.Config's default
	return &stager{db: db, cache: cache, tr: tr, handles: handles,
		known: map[*plan.Plan]*plan.Prepared{}, plans: map[string]*plan.Plan{}, seen: map[string]bool{},
		counted: map[*plan.Prepared]uint64{}, raBuilt: map[*plan.Prepared]uint64{}, offset: map[*stmt]int64{}}
}

// statement resolves the op's statement to a generation-fresh Prepared:
// parse, compile, peek, then refresh or bind as the plan cache would.
func (s *stager) statement(o op) (*plan.Prepared, error) {
	var p *plan.Plan
	if s.handles && s.plans[o.st.text] != nil {
		id := s.tr.begin("plan.by_fingerprint", "")
		p = s.cache.PlanByFingerprint(s.plans[o.st.text].Fingerprint())
		s.tr.end(id, 0)
		if p == nil {
			return nil, fmt.Errorf("fingerprint of %s no longer resolves", o.st.key)
		}
	} else {
		id := s.tr.begin("logic.parse", "")
		q, err := logic.ParseCQ(o.st.text)
		s.tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		name := "plan.compile_miss"
		if s.seen[o.st.text] {
			name = "plan.compile_hit"
		}
		id = s.tr.begin(name, "")
		p, err = s.cache.Compile(q)
		s.tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		s.seen[o.st.text] = true
		s.plans[o.st.text] = p
	}
	id := s.tr.begin("plan.peek", "")
	pr, warm := s.cache.PeekPlan(p, s.db)
	s.tr.end(id, 0)
	if warm {
		return pr, nil
	}
	if old := s.known[p]; old != nil {
		id := s.tr.begin("plan.refresh", "")
		kind, err := old.Refresh(s.tr.steps)
		if id >= 0 {
			s.tr.spans[id].Attr = kind.String()
		}
		s.tr.end(id, 0)
		if err != nil {
			return nil, err
		}
	}
	// After a refresh this only adopts the statement's new generation in
	// the cache; for a statement never seen it is the bind.
	name := "plan.bind"
	if s.known[p] != nil {
		name = "plan.adopt"
	}
	id = s.tr.begin(name, "")
	pr, err := s.cache.PreparePlan(p, s.db, s.tr.steps)
	s.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	s.known[p] = pr
	return pr, nil
}

// fresh reports whether memo records no result for pr at its current
// generation, and records one.
func fresh(memo map[*plan.Prepared]uint64, pr *plan.Prepared) bool {
	g := pr.Generation() + 1
	if memo[pr] == g {
		return false
	}
	memo[pr] = g
	return true
}

// drain pulls up to limit answers (all when limit < 0) under one span.
func (s *stager) drain(name, attr string, e *plan.CtxEnumerator, limit int64) (int64, bool) {
	id := s.tr.begin(name, attr)
	var n int64
	more := true
	for limit < 0 || n < limit {
		if _, more = e.Next(); !more {
			break
		}
		n++
	}
	s.tr.end(id, n)
	return n, more
}

// exec runs one op and returns the answers it produced and the time taken.
func (s *stager) exec(i int, o op) (int64, time.Duration, error) {
	s.tr.op = int32(i)
	start := time.Now()
	root := s.tr.begin("op", classNames[o.class])
	n, err := s.stages(o)
	s.tr.end(root, n)
	return n, time.Since(start), err
}

func (s *stager) stages(o op) (int64, error) {
	if o.kind == opMutate {
		rel := s.db.Relation(pairS.edge)
		t := database.Tuple{database.Value(o.tuple[0]), database.Value(o.tuple[1])}
		id := s.tr.begin("database.mutate", "")
		defer s.tr.end(id, 1)
		if o.insert {
			return 0, rel.InsertBatch([]database.Tuple{t})
		}
		rel.Delete(t)
		return 0, nil
	}
	pr, err := s.statement(o)
	if err != nil {
		return 0, err
	}
	engine := string(pr.Plan().EnumerateEngine)
	switch o.kind {
	case opDecide:
		id := s.tr.begin("plan.decide", "")
		_, err := pr.Decide(s.tr.steps)
		s.tr.end(id, 0)
		return 0, err
	case opCount:
		name := "plan.count_memo"
		if fresh(s.counted, pr) {
			name = "counting.count"
		}
		id := s.tr.begin(name, "")
		_, err := pr.Count(s.tr.steps)
		s.tr.end(id, 0)
		return 0, err
	case opPage:
		if o.page == 0 {
			s.offset[o.st] = 0
		}
		off := s.offset[o.st]
		var n int64
		done := false
		if pr.Plan().EnumerateEngine == plan.EngineConstantDelay {
			name := "plan.random_access_memo"
			if fresh(s.raBuilt, pr) {
				name = "cq.random_access_build"
			}
			id := s.tr.begin(name, "")
			ra, err := pr.NewRandomAccess(s.tr.steps)
			s.tr.end(id, 0)
			if err != nil {
				return 0, err
			}
			total := ra.Count().Int64()
			id = s.tr.begin("cq.random_access", "")
			for i := off; i < total && n < int64(o.limit); i++ {
				if _, err := ra.GetInt(i); err != nil {
					return n, err
				}
				n++
			}
			s.tr.end(id, n)
			done = off+n >= total
		} else {
			id := s.tr.begin("cq.enumerate_open", engine)
			e, err := pr.EnumerateCtx(context.Background(), s.tr.steps)
			s.tr.end(id, 0)
			if err != nil {
				return 0, err
			}
			s.drain("cq.skip", engine, e, off)
			var more bool
			if n, more = s.drain("cq.next", engine, e, int64(o.limit)); more {
				_, more = e.Next() // the handler peeks one ahead to set done
			}
			done = !more
		}
		// Like a client, a walk that reached the end starts over.
		s.offset[o.st] = off + n
		if done {
			s.offset[o.st] = 0
		}
		return n, nil
	default: // opStream
		id := s.tr.begin("cq.enumerate_open", engine)
		e, err := pr.EnumerateCtx(context.Background(), s.tr.steps)
		s.tr.end(id, 0)
		if err != nil {
			return 0, err
		}
		n, _ := s.drain("cq.next", engine, e, -1)
		return n, e.Err()
	}
}

// spanStats folds the spans named name (and, when attr is not empty, with
// that attribute) into a median duration and totals.
type spanStats struct {
	n       int
	median  float64
	total   int64
	answers int64
}

func statsOf(spans []span, keep func(span) bool) spanStats {
	var st spanStats
	var durs []float64
	for _, s := range spans {
		if keep(s) {
			durs = append(durs, float64(s.dur()))
			st.total += s.dur()
			st.answers += s.Answers
		}
	}
	sort.Float64s(durs)
	st.n = len(durs)
	st.median, _ = percentile(durs, 0.5)
	return st
}

func named(name string) func(span) bool { return func(s span) bool { return s.Name == name } }

func perAnswer(st spanStats) float64 {
	if st.answers == 0 {
		return 0
	}
	return float64(st.total) / float64(st.answers)
}
