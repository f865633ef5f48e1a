package plan

// Context plumbing: serving a query over the network gives every request
// a deadline, and the enumeration loops — the only unbounded work after
// Bind — must observe it. EnumerateCtx threads a context into the loop at
// answer granularity: the check is O(1) per output, so the paper's delay
// guarantees survive cancellation support (constant delay stays constant,
// just with one more constant-time operation per answer).
//
// Pagination resumes a pass where an earlier one stopped. Every route
// hands out its own position through AppendPos, and EnumerateFrom resumes
// there at the cost of about one delay: the linear-delay route re-descends
// after its last answer, the ACQ≠ route seeks its inner odometer index, the
// constant-delay route seeks an answer offset over the spine's counting
// pass, and the backtracking route and a drained union reslice their
// memoized answer list. Only a union none of whose passes has drained, and
// an odometer without a counting pass, step over the answers before the
// offset.

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
	stop bool   // e is exhausted or the context ended; e is not called again
	n    uint64 // the answer offset after the last answer delivered
}

func newCtxEnumerator(ctx context.Context, e delay.Enumerator, at uint64) *CtxEnumerator {
	return &CtxEnumerator{e: e, ctx: ctx, done: ctx.Done(), n: at}
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
	if ok {
		ce.n++
	}
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
// odometer outputs read, on every other route the answer offset, each
// value 8 bytes big-endian. A linear-delay pass that started at the first
// answer and has delivered nothing stands at the empty position: b comes
// back unchanged. Call it before reading past the last answer to deliver.
func (ce *CtxEnumerator) AppendPos(b []byte) []byte {
	switch e := ce.e.(type) {
	case lastAnswer:
		t, _ := e.Last()
		for _, v := range t {
			b = binary.BigEndian.AppendUint64(b, uint64(v))
		}
		return b
	case *ineq.NeqCursor:
		return binary.BigEndian.AppendUint64(b, e.Pos())
	}
	return binary.BigEndian.AppendUint64(b, ce.n)
}

// PosLen is the width in bytes of the non-empty positions of the plan's
// passes: 8 per head variable on the linear-delay route, 8 on every other
// route.
func (p *Plan) PosLen() int {
	if p.UCQ == nil && p.EnumerateEngine == EngineLinearDelay {
		return 8 * len(p.CQ.Head)
	}
	return 8
}

// ErrBadPosition rejects a position that is neither empty nor the plan's
// PosLen wide.
var ErrBadPosition = errors.New("plan: position does not fit the statement's route")

// EnumerateCtx is Enumerate with the request context threaded into the
// enumeration loop: draining the returned enumerator checks ctx once per
// answer, so a deadline expiring mid-stream stops the pass after at most
// one more delay unit — no goroutines, timers, or partial state are left
// behind, because cancellation is observed synchronously by the drainer.
func (pr *Prepared) EnumerateCtx(ctx context.Context, c *delay.Counter) (*CtxEnumerator, error) {
	return pr.EnumerateFrom(ctx, c, nil)
}

// EnumerateFrom is EnumerateCtx resuming after pos, a position that
// AppendPos handed out on a pass of a statement bound from the same plan
// at the same database generation; an empty pos starts at the first
// answer. Answers and their order are those of the uninterrupted pass. The
// linear-delay route re-descends to the answer after pos in about one delay
// (cq.LinearPrep.EnumerateAfter). The ACQ≠ and constant-delay routes seek
// their odometer over the counting pass of its core, which the first
// resume of a bound statement builds and later ones share. The
// backtracking route and a drained union reslice their answer list. Any
// other union pass, and a constant-delay spine whose count overflows a
// uint64, steps over the first pos answers, and a context ending meanwhile
// shows in Err. A pos that is neither empty nor PosLen wide fails with
// ErrBadPosition.
func (pr *Prepared) EnumerateFrom(ctx context.Context, c *delay.Counter, pos []byte) (*CtxEnumerator, error) {
	p := pr.plan
	if len(pos) != 0 && len(pos) != p.PosLen() {
		return nil, ErrBadPosition
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(pos) == 0 {
		e, err := pr.Enumerate(c)
		if err != nil {
			return nil, err
		}
		return newCtxEnumerator(ctx, e, 0), nil
	}
	if err := pr.check(); err != nil {
		return nil, err
	}
	if pr.spineErr != nil {
		return nil, pr.spineErr
	}
	off := binary.BigEndian.Uint64(pos)
	// Past the linear-delay and ACQ≠ routes the position is an answer
	// offset: e starts at answer at and steps over the answers up to off.
	var e delay.Enumerator
	at := off
	switch {
	case p.UCQ != nil:
		var err error
		if e, at, err = pr.enumerateUnion(c, off); err != nil {
			return nil, err
		}
	case p.EnumerateEngine == EngineLinearDelay:
		after := make(database.Tuple, len(pos)/8)
		for i := range after {
			after[i] = database.Value(binary.BigEndian.Uint64(pos[8*i:]))
		}
		return newCtxEnumerator(ctx, pr.linPrep.EnumerateAfter(c, after), 0), nil
	case p.EnumerateEngine == EngineNeqEnum:
		var w *cq.SpineWeights
		if core := pr.neqPrep.Core(); core != nil {
			pr.mu.Lock()
			w, _ = pr.weightsLocked(core, c)
			pr.mu.Unlock()
		}
		return newCtxEnumerator(ctx, pr.neqPrep.EnumerateFrom(c, w, off), 0), nil
	case p.EnumerateEngine == EngineConstantDelay:
		pr.mu.Lock()
		core, w, _ := pr.spineWeightsLocked(c)
		pr.mu.Unlock()
		od := core.Cursor(c)
		if w != nil {
			od.Seek(w, off)
		} else {
			at = 0 // no counting pass: the count overflows a uint64
		}
		e = od
	default:
		rows, err := pr.materialized()
		if err != nil {
			return nil, err
		}
		e = replay(rows, off)
	}
	ce := newCtxEnumerator(ctx, e, at)
	for ce.n < off {
		if _, ok := ce.Next(); !ok {
			break
		}
	}
	return ce, nil
}
