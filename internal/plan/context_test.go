package plan_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/plan"
)

// TestEnumerateCtxCancelMidStream: cancelling the context mid-drain stops
// the enumeration at the next answer boundary and Err distinguishes the
// cut from ordinary exhaustion.
func TestEnumerateCtxCancelMidStream(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := chainDB(64)
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	e, err := pr.EnumerateCtx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < 5; i++ {
		if _, ok := e.Next(); !ok {
			t.Fatalf("exhausted after %d answers, expected ≥ 5", got)
		}
		got++
	}
	cancel()
	if _, ok := e.Next(); ok {
		t.Fatal("Next produced an answer after cancellation")
	}
	if !errors.Is(e.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", e.Err())
	}
	// The cut is sticky.
	if _, ok := e.Next(); ok {
		t.Fatal("Next resumed after a cancelled pass")
	}
}

// TestEnumerateCtxDeadline: an already-expired deadline refuses the pass
// up front; a live context drains to ordinary exhaustion with a nil Err.
func TestEnumerateCtxDeadline(t *testing.T) {
	q := mustCQ(t, "Q(x,y) :- A(x,y), B(y,z).")
	db := chainDB(16)
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := pr.EnumerateCtx(expired, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnumerateCtx on expired context: err = %v, want DeadlineExceeded", err)
	}

	e, err := pr.EnumerateCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(delay.Collect(e))
	if n == 0 {
		t.Fatal("no answers from a live context")
	}
	if e.Err() != nil {
		t.Fatalf("Err() = %v after ordinary exhaustion, want nil", e.Err())
	}
}

// TestEnumerateFromStepObservesDeadline: an odometer core whose count
// overflows a uint64 has no counting pass to seek in, so a resume steps to
// its position: over answers on the constant-delay route, over odometer
// outputs on the ACQ≠ route. The request deadline still ends that step,
// and the pass then reports the deadline in Err.
func TestEnumerateFromStepObservesDeadline(t *testing.T) {
	db := database.NewDatabase()
	r := database.NewRelation("R", 1)
	for i := 0; i < 1<<10; i++ {
		r.Insert(database.Tuple{database.Value(i)})
	}
	db.AddRelation(r)
	for _, tc := range []struct {
		src   string
		route plan.Engine
	}{
		{"Q(a,b,c,d,e,f,g) :- R(a), R(b), R(c), R(d), R(e), R(f), R(g).", plan.EngineConstantDelay},
		{"Q(a,b,c,d,e,f,g) :- R(a), R(b), R(c), R(d), R(e), R(f), R(g), a != b.", plan.EngineNeqEnum},
	} {
		p, err := plan.Compile(mustCQ(t, tc.src))
		if err != nil {
			t.Fatal(err)
		}
		if p.EnumerateEngine != tc.route {
			t.Fatalf("%s: route %s, want %s", tc.src, p.EnumerateEngine, tc.route)
		}
		pr, err := p.Bind(db)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			e, err := pr.EnumerateFrom(ctx, nil, offsetPos(1<<40))
			if err == nil {
				if _, ok := e.Next(); ok {
					t.Error("a pass past its deadline delivered an answer")
				}
				err = e.Err()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s: a resume 2^40 deep returned with Err = %v, want DeadlineExceeded", tc.src, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: a resume 2^40 deep with a 50 ms deadline was still stepping after 2 s", tc.src)
		}
		cancel()
	}
}
