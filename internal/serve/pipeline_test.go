package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/plan"
)

// TestDeadlineClamp: deadline_ms is capped in milliseconds, before the
// conversion to time.Duration — values whose product with time.Millisecond
// wraps int64 used to come out negative, slip under the MaxDeadline cap and
// 504 the request instantly.
func TestDeadlineClamp(t *testing.T) {
	s := New(tinyDB(), nil, Config{DefaultDeadline: 2 * time.Second, MaxDeadline: 30 * time.Second})
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, 2 * time.Second},
		{-7, 2 * time.Second},
		{5, 5 * time.Millisecond},
		{30_000, 30 * time.Second},
		{30_001, 30 * time.Second},
		{1 << 62, 30 * time.Second},
		{math.MaxInt64, 30 * time.Second},
	} {
		before := time.Now()
		ctx, cancel := s.deadline(httptest.NewRequest("POST", "/v1/decide", nil), tc.ms)
		dl, ok := ctx.Deadline()
		cancel()
		if !ok {
			t.Fatalf("deadline_ms %d: context has no deadline", tc.ms)
		}
		if got := dl.Sub(before); got < tc.want || got > tc.want+time.Second {
			t.Errorf("deadline_ms %d: budget %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// TestWriteQueryErrorMapping pins how statement-path errors reach the wire.
// Overload in either form — a shed, or a re-probe loop that mutations kept
// outrunning — is retryable (503 + Retry-After), never a 400 that blames a
// valid query; only a real deadline expiry is booked as one.
func TestWriteQueryErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		name       string
		err        error
		status     int
		code       string
		retryAfter string
		expired    int64
	}{
		{"shed", &shedError{retryAfter: 1500 * time.Millisecond, detail: "full"}, 503, "bind_overloaded", "2", 0},
		{"stale re-probe exhausted", fmt.Errorf("decide: %w", plan.ErrStalePlan), 503, "stale_plan", "1", 0},
		{"deadline", context.DeadlineExceeded, 504, "deadline_exceeded", "", 1},
		{"client hung up", context.Canceled, 504, "deadline_exceeded", "", 0},
		{"bind failure", errors.New("plan: relation R is missing"), 400, "unsupported_query", "", 0},
	} {
		s := New(tinyDB(), nil, Config{})
		rec := httptest.NewRecorder()
		s.writeQueryError(rec, tc.err)
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: body %q: %v", tc.name, rec.Body.String(), err)
		}
		if rec.Code != tc.status || body.Error != tc.code {
			t.Errorf("%s: %d %q, want %d %q", tc.name, rec.Code, body.Error, tc.status, tc.code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%s: Retry-After %q, want %q", tc.name, got, tc.retryAfter)
		}
		if got := s.m.deadlineExpired.Load(); got != tc.expired {
			t.Errorf("%s: deadline_expired %d, want %d", tc.name, got, tc.expired)
		}
	}
}

// TestPanicReleasesReadLock: net/http recovers a handler's panic, so a
// panic in an execute step must not leave the database read lock held —
// every mutation after it would wait forever.
func TestPanicReleasesReadLock(t *testing.T) {
	s := New(tinyDB(), nil, Config{})
	p := compileOn(t, s, "Q(x) :- A(x).")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the execute step did not panic")
			}
		}()
		s.withStatement(context.Background(), p, func(*plan.Prepared) error { panic("execute step") })
	}()
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		body := strings.NewReader(`{"pred": "A", "op": "insert", "tuple": [2]}`)
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mutate", body))
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("/v1/mutate after the panic: status %d", code)
		}
	case <-time.After(time.Second):
		t.Fatal("/v1/mutate still blocked 1s after a panic inside withStatement: the read lock leaked")
	}
}

// failingWriter is a ResponseWriter whose peer goes away: the first ok
// writes succeed, then gone is called (if set) and, when fail is set, every
// later write fails.
type failingWriter struct {
	*httptest.ResponseRecorder
	ok     int
	fail   bool
	gone   func()
	writes int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.ok && w.fail {
		return 0, errors.New("peer is gone")
	}
	if w.writes == w.ok && w.gone != nil {
		w.gone()
	}
	return w.ResponseRecorder.Write(p)
}

// TestStreamStopsAtWriteError: a stream is written a chunk at a time, and
// one whose peer is gone must stop enumerating at the first failed chunk
// write instead of walking all 50k answers, count as served exactly the
// answers in the chunks that were written, and — like a client that cancels
// mid-stream — never be booked as an expired deadline.
func TestStreamStopsAtWriteError(t *testing.T) {
	s := New(bindChainDB(50_000), nil, Config{})
	h := s.Handler()
	stream := func(w http.ResponseWriter, ctx context.Context) {
		body := strings.NewReader(`{"query": "Q(x,y) :- A(x,y), B(y,z).", "stream": true}`)
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/enumerate", body).WithContext(ctx))
	}

	const k = 3 // chunks the peer takes before it goes away
	w := &failingWriter{ResponseRecorder: httptest.NewRecorder(), ok: k, fail: true}
	stream(w, context.Background())
	if w.writes != k+1 {
		t.Fatalf("stream attempted %d writes against a peer that died after %d; it must stop at the first failure", w.writes, k)
	}
	written := int64(bytes.Count(w.Body.Bytes(), []byte("\n")))
	if written == 0 || written >= 50_000 || !bytes.HasSuffix(w.Body.Bytes(), []byte("]}\n")) {
		t.Fatalf("%d whole answer lines in the %d chunks written", written, k)
	}
	if st := s.Stats(); st.AnswersServed != written || st.DeadlineExpired != 0 {
		t.Fatalf("answers_served %d deadline_expired %d, want %d and 0", st.AnswersServed, st.DeadlineExpired, written)
	}

	// A client hanging up cancels the request context: the stream is cut
	// after the answers still buffered, with a truncation record whose
	// cursor resumes right after the last of them; no deadline was missed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w = &failingWriter{ResponseRecorder: httptest.NewRecorder(), ok: k, gone: cancel}
	stream(w, ctx)
	lines := bytes.Split(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), []byte("\n"))
	var tail struct {
		Truncated bool   `json:"truncated"`
		Cursor    string `json:"cursor"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil || !tail.Truncated {
		t.Fatalf("cancelled stream ended without a truncation record: ...%s", w.Body.Bytes()[max(0, w.Body.Len()-200):])
	}
	if w.writes != k+1 {
		t.Fatalf("cancelled stream made %d writes, want the %d chunks before the cut and one with the rest", w.writes, k)
	}
	cur, err := decodeToken(s.cfg.CursorKey, kindCursor, tail.Cursor, 8)
	if answers := uint64(len(lines) - 1); err != nil || binary.BigEndian.Uint64(cur.pos) != answers {
		t.Fatalf("truncation cursor %+v (%v) after %d answers", cur, err, answers)
	}
	if st := s.Stats(); st.DeadlineExpired != 0 {
		t.Fatalf("client disconnect booked as deadline_expired (%d)", st.DeadlineExpired)
	}
}

// TestStalledReaderReleasesReadLock: a stream writes under the database read
// lock, so a client that sends a stream request and never reads used to
// block the server's write — and every mutation queued behind the lock —
// until it hung up. The stream's write deadline (its own deadline plus
// writeGrace) now ends the write, and with it the hold on the lock.
func TestStalledReaderReleasesReadLock(t *testing.T) {
	db := database.NewDatabase()
	r := database.NewRelation("R", 1)
	for i := 0; i < 1<<10; i++ {
		r.Insert(database.Tuple{database.Value(i)})
	}
	db.AddRelation(r)
	srv := httptest.NewUnstartedServer(New(db, nil, Config{}).Handler())
	// Small socket buffers at both ends, so the 2²⁰-answer stream fills
	// them within its first chunks whatever the host's defaults.
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if tc, ok := c.(*net.TCPConn); ok && st == http.StateNew {
			tc.SetWriteBuffer(4 << 10)
		}
	}
	srv.Start()
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	body := `{"query": "Q(x,y) :- R(x), R(y).", "stream": true, "deadline_ms": 200}`
	fmt.Fprintf(conn, "POST /v1/enumerate HTTP/1.1\r\nHost: qservd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	// The mutate must queue behind a stream already holding the read lock,
	// not slip in ahead of it: send it once the stream's own 200 ms are up
	// and only its blocked write can still be holding the lock.
	time.Sleep(300 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/mutate", "application/json",
			strings.NewReader(`{"pred": "R", "op": "insert", "tuple": [5000]}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("/v1/mutate beside a stalled stream: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("/v1/mutate still blocked 2s behind a stream whose client stopped reading")
	}
}

// sameToken reports whether two tokens carry the same fields.
func sameToken(a, b token) bool {
	return a.kind == b.kind && a.fp == b.fp && a.gen == b.gen && bytes.Equal(a.pos, b.pos)
}

// TestTokenGolden pins the token wire format to the exact strings the
// two-codec implementation (cursor.go + handle.go at commit ae1fa3d)
// minted under this key, so handles and offset cursors keep their bytes
// across the merge into one codec and the move to one cursor kind: an
// answer offset is the 8-byte position of the routes without a position of
// their own. It pins the linear-delay positions and the empty position
// beside them, and walks every rejection class of both kinds. A cursor is
// decoded with its plan's position width; a position of any other width is
// malformed, and so is a token one character off either allowed length.
func TestTokenGolden(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	all := ^uint64(0)
	u64 := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.BigEndian.AppendUint64(b, v)
		}
		return b
	}
	golden := []struct {
		tok   token
		width int // the PosLen of the plan the token is presented with
		wire  string
	}{
		{token{kind: kindCursor, fp: 0xdeadbeefcafe0123, gen: 42, pos: u64(1 << 40)}, 8, "Ad6tvu_K_gEjAAAAAAAAACoAAAEAAAAAAKlGhLbUUhby"},
		{token{kind: kindCursor, pos: u64(0)}, 8, "AQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAEoBUVB4sJ1X"},
		{token{kind: kindCursor, fp: all, gen: all, pos: u64(all)}, 8, "Af_______________________________9RXfobb46is"},
		{token{kind: kindHandle, fp: 0xfeedface00112233, gen: 77}, 0, "Av7t-s4AESIzAAAAAAAAAE28SFi6_g9ZOw"},
		{token{kind: kindHandle}, 0, "AgAAAAAAAAAAAAAAAAAAAAB0WhtxIkEYbA"},
		{token{kind: kindHandle, fp: all, gen: all}, 0, "Av____________________9QrWeNmEZhog"},
		{token{kind: kindCursor, fp: 0xdeadbeefcafe0123, gen: 42, pos: u64(7, all-1)}, 16, "Ad6tvu_K_gEjAAAAAAAAACoAAAAAAAAAB__________--rovxOFTzKs"},
		{token{kind: kindCursor, fp: all, gen: all, pos: bytes.Repeat([]byte{0xff}, 8*20)}, 8 * 20, "Af__________________________________________________________________________________________________________________________________________________________________________________________________________________________________________4ZLa3Tgiguc"},
		{token{kind: kindCursor, fp: 0xdeadbeefcafe0123, gen: 9}, 16, "Ad6tvu_K_gEjAAAAAAAAAAlU_dZjKPCnRg"},
	}
	enc := base64.RawURLEncoding
	for _, g := range golden {
		if got := encodeToken(key, g.tok); got != g.wire {
			t.Errorf("encode %+v = %q, want %q", g.tok, got, g.wire)
		}
		kind, other := g.tok.kind, kindHandle
		if kind == kindHandle {
			other = kindCursor
		}
		got, err := decodeToken(key, kind, g.wire, g.width)
		if err != nil || !sameToken(got, g.tok) {
			t.Errorf("decode %q = %+v, %v; want %+v", g.wire, got, err, g.tok)
		}
		errs, otherErrs := tokenErrs[kind], tokenErrs[other]
		raw, _ := enc.DecodeString(g.wire)
		raw[5] ^= 1
		flipped := enc.EncodeToString(raw)
		rejections := []struct {
			name  string
			kind  tokenKind
			width int
			in    string
			want  error
		}{
			{"cross-kind", other, g.width, g.wire, otherErrs.malformed},
			{"wrong key", kind, g.width, encodeToken([]byte("another key"), g.tok), errs.forged},
			{"flipped field bit", kind, g.width, flipped, errs.forged},
			{"truncated", kind, g.width, g.wire[:len(g.wire)-2], errs.malformed},
			{"extended", kind, g.width, g.wire + "AAAA", errs.malformed},
			{"not base64url", kind, g.width, "!" + g.wire[1:], errs.malformed},
			{"empty", kind, g.width, "", errs.malformed},
		}
		for _, n := range []int{enc.EncodedLen(tokenHeadLen + tokenMACLen), enc.EncodedLen(tokenHeadLen + g.width + tokenMACLen)} {
			for _, off := range []int{-1, 1} {
				rejections = append(rejections, struct {
					name  string
					kind  tokenKind
					width int
					in    string
					want  error
				}{fmt.Sprintf("%d characters", n+off), kind, g.width, strings.Repeat("A", n+off), errs.malformed})
			}
		}
		if len(g.tok.pos) > 0 {
			for _, w := range []int{0, g.width - 8, g.width + 8} {
				rejections = append(rejections, struct {
					name  string
					kind  tokenKind
					width int
					in    string
					want  error
				}{fmt.Sprintf("a plan of width %d", w), kind, w, g.wire, errs.malformed})
			}
		}
		for _, rej := range rejections {
			if _, err := decodeToken(key, rej.kind, rej.in, rej.width); err != rej.want {
				t.Errorf("%s of %q: got %v, want %v", rej.name, g.wire, err, rej.want)
			}
		}
	}
}
