package plan

// Context plumbing: serving a query over the network gives every request
// a deadline, and the enumeration loops — the only unbounded work after
// Bind — must observe it. EnumerateCtx threads a context into the loop at
// answer granularity: the check is O(1) per output, so the paper's delay
// guarantees survive cancellation support (constant delay stays constant,
// just with one more constant-time operation per answer).

import (
	"context"

	"repro/internal/database"
	"repro/internal/delay"
)

// CtxEnumerator wraps an enumerator with cooperative cancellation: Next
// reports exhaustion as soon as the context is done, and Err tells the
// two apart. It implements delay.Enumerator.
type CtxEnumerator struct {
	e    delay.Enumerator
	ctx  context.Context
	err  error
	done bool // e is exhausted or the context ended; e is not called again
}

// Next produces the next answer unless the context has been cancelled or
// its deadline has passed, in which case it reports ok=false and records
// the context error. Once it has reported ok=false it keeps doing so.
func (ce *CtxEnumerator) Next() (database.Tuple, bool) {
	if ce.done {
		return nil, false
	}
	if ce.err = ce.ctx.Err(); ce.err != nil {
		ce.done = true
		return nil, false
	}
	t, ok := ce.e.Next()
	ce.done = !ok
	return t, ok
}

// Err returns nil after ordinary exhaustion and the context's error
// (context.Canceled or context.DeadlineExceeded) when the enumeration was
// cut short. Valid once Next has returned ok=false.
func (ce *CtxEnumerator) Err() error { return ce.err }

// EnumerateCtx is Enumerate with the request context threaded into the
// enumeration loop: draining the returned enumerator checks ctx once per
// answer, so a deadline expiring mid-stream stops the pass after at most
// one more delay unit — no goroutines, timers, or partial state are left
// behind, because cancellation is observed synchronously by the drainer.
func (pr *Prepared) EnumerateCtx(ctx context.Context, c *delay.Counter) (*CtxEnumerator, error) {
	return pr.EnumerateAt(ctx, c, 0)
}

// EnumerateAt is EnumerateCtx starting at answer offset of the route's
// deterministic order — what a pagination cursor resumes. On the
// constant-delay route the cursor is placed by one seek over the spine's
// counting pass, O(‖φ‖·log‖D‖) whatever the offset, and continues at
// constant delay; the other routes, and a spine with more answers than a
// uint64 counts, enumerate and discard offset answers. An offset at or past
// the end yields an exhausted enumerator; a context ending during the skip
// shows in its Err.
func (pr *Prepared) EnumerateAt(ctx context.Context, c *delay.Counter, offset uint64) (*CtxEnumerator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := pr.check(); err != nil {
		return nil, err
	}
	if offset > 0 {
		pr.mu.Lock()
		core, w, err := pr.spineWeightsLocked(c)
		pr.mu.Unlock()
		if err == nil {
			od := core.Cursor(c)
			od.Seek(w, offset)
			return &CtxEnumerator{e: od, ctx: ctx}, nil
		}
	}
	e, err := pr.Enumerate(c)
	if err != nil {
		return nil, err
	}
	ce := &CtxEnumerator{e: e, ctx: ctx}
	for ; offset > 0; offset-- {
		if _, ok := ce.Next(); !ok {
			break
		}
	}
	return ce, nil
}
