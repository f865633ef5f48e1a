package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// world is everything a run's clients share: the dataset, the oracle's
// expectations, and for churn_rw how far each client's mutations have got.
type world struct {
	seed int64
	data *dataset

	mu   sync.Mutex
	pds  map[pair]*pairData
	exps map[expectKey]*expect

	// churn[c] counts client c's mutations: started before the request is
	// sent, done after its response arrived. A read that overlaps another
	// client's mutate may or may not see it; these bound which.
	churn []churnProgress
}

type churnProgress struct{ started, done atomic.Int64 }

type expectKey struct {
	sh shape
	p  pair
}

func newWorld(seed int64, data *dataset, wl *workload, clients int) *world {
	w := &world{seed: seed, data: data, pds: map[pair]*pairData{}, exps: map[expectKey]*expect{},
		churn: make([]churnProgress, clients)}
	// Compute every expectation the workload needs now, not inside a timed op.
	for _, st := range wl.warm {
		w.expect(st.sh, st.p)
	}
	for _, sh := range wl.fresh {
		w.expect(sh, pairC)
	}
	return w
}

func (w *world) pairData(p pair) *pairData {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pairDataLocked(p)
}

func (w *world) pairDataLocked(p pair) *pairData {
	pd := w.pds[p]
	if pd == nil {
		pd = newPairData(w.data.rows[p.edge], w.data.rows[p.label])
		w.pds[p] = pd
	}
	return pd
}

func (w *world) expect(sh shape, p pair) *expect {
	w.mu.Lock()
	defer w.mu.Unlock()
	key := expectKey{sh, p}
	ex := w.exps[key]
	if ex == nil {
		e := w.pairDataLocked(p).expect(sh)
		ex = &e
		w.exps[key] = ex
	}
	return ex
}

// transport carries one request to the server. ttfb is when the first body
// byte arrived; for a stream that is the first flushed answers.
type transport interface {
	post(path string, body []byte) (status int, resp []byte, ttfb time.Time, err error)
}

// httpTransport is one keep-alive connection to a qservd process.
type httpTransport struct {
	base string
	c    *http.Client
	buf  []byte
}

func newHTTPTransport(base string) *httpTransport {
	return &httpTransport{base: base, c: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (h *httpTransport) post(path string, body []byte) (int, []byte, time.Time, error) {
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	defer resp.Body.Close()
	var ttfb time.Time
	buf := h.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		if n > 0 && ttfb.IsZero() {
			ttfb = time.Now()
		}
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, ttfb, err
		}
	}
	h.buf = buf
	if ttfb.IsZero() {
		ttfb = time.Now()
	}
	return resp.StatusCode, buf, ttfb, nil
}

func (h *httpTransport) close() { h.c.CloseIdleConnections() }

// handlerTransport calls a serve.Handler in process, for the traced replay.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) post(path string, body []byte) (int, []byte, time.Time, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes(), time.Now(), nil
}

// rec is the record of one executed op; times are offsets from the run's
// start in nanoseconds.
type rec struct {
	class      class
	role       role
	start, end int64
	ttfb       int64
	answers    int64
	ok         bool
}

// walkState is a client's position in one statement's page walk.
type walkState struct {
	cursor string
	offset int64
	seen   map[uint64]bool // answer hashes of the walk so far: pages must not repeat
}

type verKey struct {
	st     *stmt
	class  class
	offset int64
}

// verified is a response body that passed its checks, with what a page walk
// needs from it, so an identical body is not decoded again.
type verified struct {
	body    []byte
	answers int64
	cursor  string
}

// client runs one script against one transport and checks every response.
type client struct {
	id      int
	w       *world
	tr      transport
	next    func() op
	handles map[string]string // statement key → prepared handle (scan_enum)
	t0      time.Time

	walks     map[*stmt]*walkState
	verified  map[verKey]verified // fixed workloads: bodies already checked
	lastGen   uint64
	mutations int64         // own completed mutations
	live      *[2]int64     // own tuple currently in edge_s, if any
	peers     []*peerScript // churn_rw: every client's script, replayed
	churn     bool          // the data moves under the reads: range checks
	fixed     bool          // fixed statements over fixed data: bodies repeat
	recs      []rec
	firstErr  error
	req       []byte
}

// peerScript replays another client's mutation script to learn which of its
// inserts change the fc2_s count.
type peerScript struct {
	id   int
	next func() op
	hits []bool // hits[m]: mutation m's tuple targets a label_s value
}

func (p *peerScript) hit(w *world, m int64) bool {
	for int64(len(p.hits)) <= m {
		o := p.next()
		if o.kind == opMutate {
			p.hits = append(p.hits, w.pairData(pairS).label[o.tuple[1]])
		}
	}
	return p.hits[m]
}

// contrib is how many fc2_s answers a client's private tuples add after k
// of its mutations: one if the k-th left a labelled tuple in place.
func contrib(w *world, p *peerScript, k int64) int64 {
	if k%2 == 1 && p.hit(w, k-1) {
		return 1
	}
	return 0
}

func newClient(id int, w *world, wl *workload, tr transport, clients int, t0 time.Time) *client {
	c := &client{id: id, w: w, tr: tr, next: wl.script(w, id), t0: t0,
		walks: map[*stmt]*walkState{}, verified: map[verKey]verified{},
		churn: wl.mutates, fixed: !wl.mutates && wl.fresh == nil}
	if c.churn {
		for p := 0; p < clients; p++ {
			c.peers = append(c.peers, &peerScript{id: p, next: wl.script(w, p)})
		}
	}
	return c
}

func (c *client) fail(o op, format string, args ...interface{}) {
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("client %d: %s: %s", c.id, o, fmt.Sprintf(format, args...))
	}
}

// queryBody renders the JSON request for a statement op.
func (c *client) queryBody(o op, cursor string) []byte {
	b := append(c.req[:0], '{')
	if h, ok := c.handles[o.st.key]; ok {
		b = append(b, `"handle":`...)
		b = strconv.AppendQuote(b, h)
	} else {
		b = append(b, `"query":`...)
		b = strconv.AppendQuote(b, o.st.text)
	}
	if o.kind == opPage {
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(o.limit), 10)
		if cursor != "" {
			b = append(b, `,"cursor":`...)
			b = strconv.AppendQuote(b, cursor)
		}
	}
	if o.kind == opStream {
		b = append(b, `,"stream":true`...)
	}
	c.req = append(b, '}')
	return c.req
}

var kindPaths = [...]string{opDecide: "/v1/decide", opCount: "/v1/count", opPage: "/v1/enumerate", opStream: "/v1/enumerate", opMutate: "/v1/mutate"}

// do sends one op, checks the response and records it.
func (c *client) do(o op) rec {
	var body []byte
	var ws *walkState
	switch o.kind {
	case opMutate:
		kind := "delete"
		if o.insert {
			kind = "insert"
		}
		c.req = append(c.req[:0], fmt.Sprintf(`{"pred":%q,"op":%q,"tuple":[%d,%d]}`, pairS.edge, kind, o.tuple[0], o.tuple[1])...)
		body = c.req
		c.w.churn[c.id].started.Add(1)
	case opPage:
		ws = c.walks[o.st]
		if ws == nil || o.page == 0 || ws.cursor == "" {
			ws = &walkState{seen: map[uint64]bool{}}
			c.walks[o.st] = ws
		}
		body = c.queryBody(o, ws.cursor)
	default:
		body = c.queryBody(o, "")
	}
	var peerLo []int64
	if o.role == roleRaw {
		for _, p := range c.peers {
			peerLo = append(peerLo, c.w.churn[p.id].done.Load())
		}
	}

	start := time.Now()
	status, resp, ttfb, err := c.tr.post(kindPaths[o.kind], body)
	end := time.Now()
	r := rec{class: o.class, role: o.role, start: start.Sub(c.t0).Nanoseconds(),
		end: end.Sub(c.t0).Nanoseconds(), ttfb: ttfb.Sub(start).Nanoseconds()}
	if err != nil {
		c.fail(o, "transport: %v", err)
		return r
	}
	if status != http.StatusOK {
		c.fail(o, "status %d: %s", status, bytes.TrimSpace(resp))
		return r
	}
	r.answers, r.ok = c.check(o, ws, resp, peerLo)
	return r
}

type pointResp struct {
	Answer     *bool  `json:"answer"`
	Count      string `json:"count"`
	Applied    *bool  `json:"applied"`
	Generation uint64 `json:"generation"`
}

type pageResp struct {
	Answers    [][]int64 `json:"answers"`
	Done       bool      `json:"done"`
	Generation uint64    `json:"generation"`
	NextCursor string    `json:"next_cursor"`
}

// generation checks that the database generation a client observes never
// goes backwards.
func (c *client) generation(o op, g uint64) bool {
	if g < c.lastGen {
		c.fail(o, "generation went back: %d after %d", g, c.lastGen)
		return false
	}
	c.lastGen = g
	return true
}

// check validates one 200 response against the oracle and returns the
// number of answers it carried.
func (c *client) check(o op, ws *walkState, resp []byte, peerLo []int64) (int64, bool) {
	var key verKey
	if c.fixed && o.kind != opStream {
		// Neither statements nor data change, so a body identical to one
		// already checked for the same request is correct.
		key = verKey{st: o.st, class: o.class}
		if ws != nil {
			key.offset = ws.offset
		}
		if prev, ok := c.verified[key]; ok && bytes.Equal(prev.body, resp) {
			if ws != nil {
				ws.offset += prev.answers
				ws.cursor = prev.cursor
			}
			return prev.answers, true
		}
	}
	ver := verified{}
	switch o.kind {
	case opStream:
		ex := c.w.expect(o.st.sh, o.st.p)
		n, sum, term, err := parseStream(resp, ex.arity)
		switch {
		case err != nil:
			c.fail(o, "stream: %v", err)
			return n, false
		case !term.Done || term.Count != n:
			c.fail(o, "stream ended %+v after %d answers", term, n)
			return n, false
		case n != ex.count || sum != ex.sum:
			c.fail(o, "stream carried %d answers (checksum %x), want %d (%x)", n, sum, ex.count, ex.sum)
			return n, false
		}
		return n, true
	case opPage:
		var pr pageResp
		if err := json.Unmarshal(resp, &pr); err != nil {
			c.fail(o, "decode: %v", err)
			return 0, false
		}
		ver.answers, ver.cursor = int64(len(pr.Answers)), pr.NextCursor
		if !c.generation(o, pr.Generation) || !c.checkPage(o, ws, &pr) {
			return ver.answers, false
		}
	default:
		var pr pointResp
		if err := json.Unmarshal(resp, &pr); err != nil {
			c.fail(o, "decode: %v", err)
			return 0, false
		}
		if !c.generation(o, pr.Generation) || !c.checkPoint(o, &pr, peerLo) {
			return 0, false
		}
	}
	if c.fixed {
		ver.body = append([]byte(nil), resp...)
		c.verified[key] = ver
	}
	return ver.answers, true
}

func (c *client) checkPage(o op, ws *walkState, pr *pageResp) bool {
	ex := c.w.expect(o.st.sh, o.st.p)
	n := int64(len(pr.Answers))
	if c.churn {
		// The count moves by at most one per client and stays far above the
		// first page's 64; membership allows for the clients' own tuples.
		pd := c.w.pairData(o.st.p)
		for _, t := range pr.Answers {
			if len(t) != 2 || !pd.label[t[1]] || !(pd.edgeSet[[2]int64{t[0], t[1]}] || t[0] > int64(c.w.data.sc.dom(o.st.p))) {
				c.fail(o, "answer %v is not in fc2 of %s", t, o.st.p.edge)
				return false
			}
		}
		if n != int64(o.limit) || pr.Done {
			c.fail(o, "first page has %d answers, done=%v", n, pr.Done)
			return false
		}
		return true
	}
	want := min(int64(o.limit), ex.count-ws.offset)
	if n != want || pr.Done != (ws.offset+n >= ex.count) || pr.Done != (pr.NextCursor == "") {
		c.fail(o, "page at offset %d has %d answers, done=%v, want %d of %d", ws.offset, n, pr.Done, want, ex.count)
		return false
	}
	for _, t := range pr.Answers {
		if len(t) != ex.arity || !ex.member(t) {
			c.fail(o, "answer %v is not an answer", t)
			return false
		}
		h := tupleHash(t)
		if ws.seen[h] {
			c.fail(o, "answer %v repeats within one walk", t)
			return false
		}
		ws.seen[h] = true
	}
	ws.offset += n
	ws.cursor = pr.NextCursor
	return true
}

func (c *client) checkPoint(o op, pr *pointResp, peerLo []int64) bool {
	switch o.kind {
	case opMutate:
		if pr.Applied == nil || !*pr.Applied {
			c.fail(o, "mutation not applied")
			return false
		}
		c.mutations++
		c.live = nil
		if o.insert {
			t := o.tuple
			c.live = &t
		}
		c.w.churn[c.id].done.Add(1)
	case opDecide:
		ex := c.w.expect(o.st.sh, o.st.p)
		if pr.Answer == nil || *pr.Answer != (ex.count > 0) {
			c.fail(o, "decide answered %v, want %v", pr.Answer, ex.count > 0)
			return false
		}
	case opCount:
		got, err := strconv.ParseInt(pr.Count, 10, 64)
		lo := c.w.expect(o.st.sh, o.st.p).count
		hi := lo
		if o.role == roleRaw {
			// Own mutations are all visible; each other client's are
			// visible up to some point between request and response.
			for i, p := range c.peers {
				if p.id == c.id {
					own := contrib(c.w, p, c.mutations)
					lo, hi = lo+own, hi+own
					continue
				}
				pmin, pmax := int64(1), int64(0)
				for k := peerLo[i]; k <= c.w.churn[p.id].started.Load(); k++ {
					v := contrib(c.w, p, k)
					pmin, pmax = min(pmin, v), max(pmax, v)
				}
				lo, hi = lo+pmin, hi+pmax
			}
		}
		if err != nil || got < lo || got > hi {
			c.fail(o, "count %q, want %d..%d", pr.Count, lo, hi)
			return false
		}
	}
	return true
}

type streamEnd struct {
	Done      bool  `json:"done"`
	Count     int64 `json:"count"`
	Truncated bool  `json:"truncated"`
}

var answerPrefix = []byte(`{"answer":[`)

// parseStream reads an NDJSON answer stream: the number of answer lines,
// their checksum, and the terminal record. Answer lines are parsed by hand;
// at a million lines a second encoding/json would cost the generator more
// CPU than the server spends producing them.
func parseStream(b []byte, arity int) (n int64, sum uint64, term streamEnd, err error) {
	t := make([]int64, 0, 4)
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		if nl < 0 {
			return n, sum, term, fmt.Errorf("unterminated line %q", b)
		}
		line := b[:nl]
		b = b[nl+1:]
		if !bytes.HasPrefix(line, answerPrefix) {
			if len(b) != 0 {
				return n, sum, term, fmt.Errorf("record %q before the end of the stream", line)
			}
			return n, sum, term, json.Unmarshal(line, &term)
		}
		t = t[:0]
		var v int64
		neg, digits := false, false
		for _, ch := range line[len(answerPrefix):] {
			switch {
			case ch >= '0' && ch <= '9':
				v, digits = v*10+int64(ch-'0'), true
			case ch == '-':
				neg = true
			case ch == ',' || ch == ']':
				if digits {
					if neg {
						v = -v
					}
					t = append(t, v)
				}
				v, neg, digits = 0, false, false
			}
			if ch == ']' {
				break
			}
		}
		if len(t) != arity {
			return n, sum, term, fmt.Errorf("answer line %q has arity %d, want %d", line, len(t), arity)
		}
		n++
		sum += tupleHash(t)
	}
	return n, sum, term, fmt.Errorf("stream has no terminal record")
}
