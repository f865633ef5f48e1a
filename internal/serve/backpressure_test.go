package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

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
	in := token{kind: kindCursor, fp: 0xdeadbeefcafe, gen: 42, offset: 1 << 40}
	out, err := decodeToken(key, kindCursor, encodeToken(key, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
	if _, err := decodeToken(bytes.Repeat([]byte{8}, 32), kindCursor, encodeToken(key, in)); err == nil {
		t.Fatal("cursor verified under a different key")
	}
}
