package plan

// Context plumbing: serving a query over the network gives every request
// a deadline, and the enumeration loops — the only unbounded work after
// Bind — must observe it. EnumerateCtx threads a context into the loop at
// answer granularity: the check is O(1) per output, so the paper's delay
// guarantees survive cancellation support (constant delay stays constant,
// just with one more constant-time operation per answer).
//
// Pagination resumes a pass where an earlier one stopped, in one of two
// ways. EnumerateAt takes an answer offset: the constant-delay route seeks
// it over the spine's counting pass, every other route enumerates and
// discards offset answers. EnumerateFrom takes a route-native position,
// which the linear-delay and ACQ≠ routes hand out through AppendPos and
// resume from at the cost of about one delay, whatever the offset.

import (
	"context"
	"encoding/binary"
	"errors"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/ineq"
)

// CtxEnumerator wraps an enumerator with cooperative cancellation: Next
// reports exhaustion as soon as the context is done, and Err tells the
// two apart. It implements delay.Enumerator.
type CtxEnumerator struct {
	e    delay.Enumerator
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), read once: nil for a context that never ends
	err  error
	stop bool // e is exhausted or the context ended; e is not called again
}

func newCtxEnumerator(ctx context.Context, e delay.Enumerator) *CtxEnumerator {
	return &CtxEnumerator{e: e, ctx: ctx, done: ctx.Done()}
}

// Next produces the next answer unless the context has been cancelled or
// its deadline has passed, in which case it reports ok=false and records
// the context error. Once it has reported ok=false it keeps doing so. The
// check is a non-blocking receive on the context's done channel, which
// takes no lock.
func (ce *CtxEnumerator) Next() (database.Tuple, bool) {
	if ce.stop {
		return nil, false
	}
	select {
	case <-ce.done:
		ce.err, ce.stop = ce.ctx.Err(), true
		return nil, false
	default:
	}
	t, ok := ce.e.Next()
	ce.stop = !ok
	return t, ok
}

// Err returns nil after ordinary exhaustion and the context's error
// (context.Canceled or context.DeadlineExceeded) when the enumeration was
// cut short. Valid once Next has returned ok=false.
func (ce *CtxEnumerator) Err() error { return ce.err }

// lastAnswer is the linear-delay pass: its position is its last answer.
type lastAnswer interface {
	Last() (database.Tuple, bool)
}

// AppendPos appends to b the route-native position after the last answer
// the pass delivered, which EnumerateFrom resumes from: on the
// linear-delay route that answer's values, on the ACQ≠ route the count of
// odometer outputs read, each value 8 bytes big-endian. It reports false
// on the routes without positions (Plan.PosLen is 0) and on a fresh
// linear-delay pass that has delivered nothing yet. Call it before reading
// past the last answer to deliver.
func (ce *CtxEnumerator) AppendPos(b []byte) ([]byte, bool) {
	switch e := ce.e.(type) {
	case lastAnswer:
		t, ok := e.Last()
		if !ok {
			return b, false
		}
		for _, v := range t {
			b = binary.BigEndian.AppendUint64(b, uint64(v))
		}
		return b, true
	case *ineq.NeqCursor:
		return binary.BigEndian.AppendUint64(b, e.Pos()), true
	}
	return b, false
}

// PosLen is the width in bytes of the route-native positions of the plan's
// passes: 8 per head variable on the linear-delay route, 8 on the ACQ≠
// route, and 0 on every other route — unions, Boolean queries and the
// constant-delay route among them, whose answer offsets EnumerateAt
// already seeks.
func (p *Plan) PosLen() int {
	if p.UCQ != nil {
		return 0
	}
	switch p.EnumerateEngine {
	case EngineLinearDelay:
		return 8 * len(p.CQ.Head)
	case EngineNeqEnum:
		return 8
	}
	return 0
}

// ErrBadPosition rejects a position whose width is not the plan's PosLen.
var ErrBadPosition = errors.New("plan: position does not fit the statement's route")

// EnumerateCtx is Enumerate with the request context threaded into the
// enumeration loop: draining the returned enumerator checks ctx once per
// answer, so a deadline expiring mid-stream stops the pass after at most
// one more delay unit — no goroutines, timers, or partial state are left
// behind, because cancellation is observed synchronously by the drainer.
func (pr *Prepared) EnumerateCtx(ctx context.Context, c *delay.Counter) (*CtxEnumerator, error) {
	return pr.EnumerateAt(ctx, c, 0)
}

// EnumerateAt is EnumerateCtx starting at answer offset of the route's
// deterministic order — what an offset cursor resumes. On the
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
			return newCtxEnumerator(ctx, od), nil
		}
	}
	e, err := pr.Enumerate(c)
	if err != nil {
		return nil, err
	}
	ce := newCtxEnumerator(ctx, e)
	for ; offset > 0; offset-- {
		if _, ok := ce.Next(); !ok {
			break
		}
	}
	return ce, nil
}

// EnumerateFrom is EnumerateCtx resuming after pos, a position that
// AppendPos handed out on a pass of a statement bound from the same plan
// at the same database generation; an empty pos starts at the first
// answer. The linear-delay route re-descends to the answer after pos in
// about one delay (cq.LinearPrep.EnumerateAfter). The ACQ≠ route seeks its
// odometer to pos over the counting pass of its core, which the first
// resume of a bound statement builds and later ones share. Answers and
// their order are those of the uninterrupted pass. A pos whose width is not
// the plan's PosLen fails with ErrBadPosition.
func (pr *Prepared) EnumerateFrom(ctx context.Context, c *delay.Counter, pos []byte) (*CtxEnumerator, error) {
	if len(pos) == 0 {
		return pr.EnumerateCtx(ctx, c)
	}
	if len(pos) != pr.plan.PosLen() {
		return nil, ErrBadPosition
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := pr.check(); err != nil {
		return nil, err
	}
	if pr.spineErr != nil {
		return nil, pr.spineErr
	}
	if pr.plan.EnumerateEngine == EngineLinearDelay {
		after := make(database.Tuple, len(pos)/8)
		for i := range after {
			after[i] = database.Value(binary.BigEndian.Uint64(pos[8*i:]))
		}
		return newCtxEnumerator(ctx, pr.linPrep.EnumerateAfter(c, after)), nil
	}
	var w *cq.SpineWeights
	if core := pr.neqPrep.Core(); core != nil {
		pr.mu.Lock()
		w, _ = pr.weightsLocked(core, c)
		pr.mu.Unlock()
	}
	return newCtxEnumerator(ctx, pr.neqPrep.EnumerateFrom(c, w, binary.BigEndian.Uint64(pos))), nil
}
