package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/database"
)

func tinyDB() *database.Database {
	db := database.NewDatabase()
	a := database.NewRelation("A", 1)
	a.Insert(database.Tuple{1})
	db.AddRelation(a)
	return db
}

// TestAdmissionControl429 exercises the semaphore deterministically: with
// every admission slot held, any request is rejected immediately with 429
// and the rejection counter moves; once a slot frees, the same request is
// served. This is the backpressure an open-loop load generator must see
// instead of unbounded queueing.
func TestAdmissionControl429(t *testing.T) {
	s := New(tinyDB(), nil, Config{MaxInFlight: 2})
	h := s.Handler()
	body := func() *bytes.Reader {
		buf, _ := json.Marshal(map[string]string{"query": "Q(x) :- A(x)."})
		return bytes.NewReader(buf)
	}

	// Occupy every slot.
	s.sem <- struct{}{}
	s.sem <- struct{}{}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decide", body()))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", rec.Code)
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "overloaded" {
		t.Fatalf("429 body %q (%v)", rec.Body.String(), err)
	}
	if got := s.m.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}

	// Free one slot: the identical request is admitted.
	<-s.sem
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decide", body()))
	if rec.Code != http.StatusOK {
		t.Fatalf("after freeing a slot: %d, want 200", rec.Code)
	}
	<-s.sem

	// Rejection is non-blocking even under a stampede.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decide", body()))
			if rec.Code != http.StatusTooManyRequests {
				t.Errorf("stampede request answered %d, want 429", rec.Code)
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().Rejected; got != 1+32 {
		t.Fatalf("rejected counter %d, want 33", got)
	}
}

// TestCursorRoundTrip pins the codec: encode → decode is the identity, and
// each field lands in its slot.
func TestCursorRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{9}, 32)
	in := token{kind: kindCursor, fp: 0xdeadbeefcafe, gen: 42, pos: []byte{0, 0, 1, 0, 0, 0, 0, 0}}
	out, err := decodeToken(key, kindCursor, encodeToken(key, in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sameToken(out, in) {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
	if _, err := decodeToken(bytes.Repeat([]byte{8}, 32), kindCursor, encodeToken(key, in), 8); err == nil {
		t.Fatal("cursor verified under a different key")
	}
}

// TestWritePacing pins the write budget from below (a sleep never wakes
// early, so the bounds hold on any host): a burst is admitted without a wait,
// n mutations beyond it take n intervals whichever goroutines send them, a
// refused request spends no budget, and a writer that was idle is not made to
// wait.
func TestWritePacing(t *testing.T) {
	s := New(tinyDB(), nil, Config{})
	h := s.Handler()
	mutate := func(op string, v int64) int {
		buf, _ := json.Marshal(map[string]interface{}{"pred": "A", "op": op, "tuple": []int64{v}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mutate", bytes.NewReader(buf)))
		return rec.Code
	}
	for i := 0; i < 4*writeBurst; i++ {
		if code := mutate("upsert", 7); code != http.StatusBadRequest {
			t.Fatalf("unknown op answered %d, want 400", code)
		}
	}
	if !s.writeDue.IsZero() {
		t.Fatal("a refused mutation spent write budget")
	}

	const beyond = 20
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < (writeBurst+beyond)/2; i++ {
				if code := mutate("insert", int64(100*g+i)); code != http.StatusOK {
					t.Errorf("insert answered %d", code)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := time.Since(start), beyond*writeInterval; got < want {
		t.Fatalf("%d mutations took %v, want at least %v", writeBurst+beyond, got, want)
	}

	time.Sleep(2 * writeBurst * writeInterval)
	s.writeMu.Lock()
	due := s.writeDue
	s.writeMu.Unlock()
	if mutate("delete", 100); !s.writeDue.Before(time.Now()) || !s.writeDue.After(due) {
		t.Fatalf("an idle writer's mutation was due at %v, after the request", s.writeDue)
	}
}
