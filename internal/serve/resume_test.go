package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/database"
	"repro/internal/logic"
	"repro/internal/plan"
)

// cliqueRelation is the complete directed graph without loops on k nodes,
// so the triangle query over it has k(k-1)(k-2) answers.
func cliqueRelation(name string, k int) *database.Relation {
	r := database.NewRelation(name, 2)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if a != b {
				r.InsertValues(database.Value(a), database.Value(b))
			}
		}
	}
	return r
}

// routeQueries is one statement per route the server resumes: constant
// delay, linear delay (mm), ACQ≠ (neq2), backtracking (a triangle over the
// clique T) and a union, which the query endpoints do not parse, so the
// tests here bind it directly and drive the same page and stream code.
var routeQueries = []struct{ route, src string }{
	{"constant-delay", "Q(x,y) :- E(x,y), L(y)."},
	{"linear-delay", mmQuery},
	{"acq-neq", neq2Query},
	{"backtracking", "Q(x,y,z) :- T(x,y), T(y,z), T(z,x)."},
	{"union", "Q(x,y) :- E(x,y), L(y); Q(x,y) :- E(y,x), L(x)."},
}

// bindRoute compiles src (a union when it holds ";") and binds it to db.
func bindRoute(t *testing.T, db *database.Database, src string) *plan.Prepared {
	t.Helper()
	u, err := logic.ParseUCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	var p *plan.Plan
	if len(u.Disjuncts) > 1 {
		p, err = plan.CompileUCQ(u)
	} else {
		p, err = plan.Compile(u.Disjuncts[0])
	}
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// streamRecord is a stream line: an answer, or the terminal record.
type streamRecord struct {
	Answer    json.RawMessage `json:"answer"`
	Cursor    string          `json:"cursor"`
	Done      bool            `json:"done"`
	Truncated bool            `json:"truncated"`
}

// streamFrom streams pr's answers after from through streamAnswers and
// returns them with the terminal record.
func streamFrom(t *testing.T, s *Server, ctx context.Context, w *failingWriter, pr *plan.Prepared, from token) ([]string, streamRecord) {
	t.Helper()
	if err := s.streamAnswers(ctx, w, pr, pr.Generation(), from); err != nil {
		t.Fatalf("stream: %v", err)
	}
	var answers []string
	var rec streamRecord
	for _, line := range bytes.Split(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), []byte("\n")) {
		rec = streamRecord{}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		if rec.Answer != nil {
			answers = append(answers, string(rec.Answer))
		}
	}
	if rec.Answer != nil || rec.Done == rec.Truncated {
		t.Fatalf("stream ends without a terminal record: %+v", rec)
	}
	return answers, rec
}

// cutCtx is a request deadline the test fires by hand: Done closes and Err
// reports context.DeadlineExceeded once fire has run. An armed cutCtx fires
// at its first Err check and still passes it, as a deadline expiring right
// after the pass started and before its first answer.
type cutCtx struct {
	context.Context
	done  chan struct{}
	fired bool
	armed bool
}

func newCutCtx(armed bool) *cutCtx {
	return &cutCtx{Context: context.Background(), done: make(chan struct{}), armed: armed}
}

func (c *cutCtx) fire() {
	if !c.fired {
		c.fired = true
		close(c.done)
	}
}

func (c *cutCtx) Done() <-chan struct{} { return c.done }

func (c *cutCtx) Err() error {
	if c.fired {
		return context.DeadlineExceeded
	}
	if c.armed {
		c.fire()
	}
	return nil
}

// TestTruncationCursorResumes: on every route, a stream whose deadline
// passes after its first chunk, and one whose deadline passes before its
// first answer, end with a truncation cursor, and a stream resumed from
// that cursor on a fresh binding of the statement (as after an eviction)
// serves exactly the rest of the uncut stream: no answer twice, none left
// out. On the linear-delay route the early cut hands out the empty position.
func TestTruncationCursorResumes(t *testing.T) {
	db := edgeLabelDB(1 << 13)
	db.AddRelation(cliqueRelation("T", 24))
	s := New(db, nil, Config{})
	for _, rq := range routeQueries {
		t.Run(rq.route, func(t *testing.T) {
			pr := bindRoute(t, db, rq.src)
			full, _ := streamFrom(t, s, context.Background(), &failingWriter{ResponseRecorder: httptest.NewRecorder()}, pr, token{})
			if n := len(full); n < 2000 {
				t.Fatalf("a stream of %d answers fits one chunk: nothing to cut", n)
			}
			for _, early := range []bool{false, true} {
				ctx := newCutCtx(early)
				w := &failingWriter{ResponseRecorder: httptest.NewRecorder(), ok: 1, gone: ctx.fire}
				prefix, cut := streamFrom(t, s, ctx, w, pr, token{})
				if !cut.Truncated || len(prefix) >= len(full) || early != (len(prefix) == 0) {
					t.Fatalf("cut (early %v) after %d of %d answers, truncated %v", early, len(prefix), len(full), cut.Truncated)
				}
				from, err := decodeToken(s.cfg.CursorKey, kindCursor, cut.Cursor, pr.Plan().PosLen())
				if err != nil {
					t.Fatalf("truncation cursor %q: %v", cut.Cursor, err)
				}
				if empty := len(from.pos) == 0; empty != (early && pr.Plan().EnumerateEngine == plan.EngineLinearDelay && pr.Plan().UCQ == nil) {
					t.Fatalf("cut after %d answers: position %x", len(prefix), from.pos)
				}
				rest, tail := streamFrom(t, s, context.Background(), &failingWriter{ResponseRecorder: httptest.NewRecorder()}, bindRoute(t, db, rq.src), from)
				if got := append(prefix, rest...); !tail.Done || !slices.Equal(got, full) {
					t.Fatalf("cut after %d answers, resumed %d more (done %v): not the uncut stream's %d", len(prefix), len(rest), tail.Done, len(full))
				}
			}
		})
	}
}

// TestUnionCursorWalk: page walks of a union by cursor, at page sizes 1, 7
// and 64, serve exactly one stream's answers in the stream's order — on a
// fresh binding, whose pages step over the answers before them until a
// page drains the union, and again on the same binding, whose pages then
// reslice the drained pass.
func TestUnionCursorWalk(t *testing.T) {
	db := edgeLabelDB(400)
	s := New(db, nil, Config{})
	src := routeQueries[len(routeQueries)-1].src
	stream, _ := streamFrom(t, s, context.Background(), &failingWriter{ResponseRecorder: httptest.NewRecorder()}, bindRoute(t, db, src), token{})
	if len(stream) < 100 {
		t.Fatalf("a union of %d answers is too short to walk", len(stream))
	}
	for _, size := range []int{1, 7, 64} {
		pr := bindRoute(t, db, src)
		for _, pass := range []string{"stepping", "reslicing"} {
			var walk []string
			for from := (token{}); ; {
				body, n, err := s.appendPage(context.Background(), nil, pr, pr.Generation(), from, size)
				var page struct {
					Answers []json.RawMessage `json:"answers"`
					Done    bool              `json:"done"`
					Next    string            `json:"next_cursor"`
				}
				if err != nil || json.Unmarshal(body, &page) != nil || len(page.Answers) != n {
					t.Fatalf("page %d: %v: %s", len(walk)/size, err, body)
				}
				for _, a := range page.Answers {
					walk = append(walk, string(a))
				}
				if page.Done || len(walk) > len(stream) {
					break
				}
				if from, err = decodeToken(s.cfg.CursorKey, kindCursor, page.Next, pr.Plan().PosLen()); err != nil {
					t.Fatalf("cursor %q: %v", page.Next, err)
				}
			}
			if !slices.Equal(walk, stream) {
				t.Fatalf("page size %d, %s: the walk served %d answers, the stream %d, or another order", size, pass, len(walk), len(stream))
			}
		}
	}
}
