package plan

// Context plumbing: serving a query gives every request a deadline, and
// the enumeration loops — the only unbounded work after Bind — observe it
// once per answer, so constant delay stays constant. Pagination resumes a
// pass where an earlier one stopped: each route's passes hand out their
// own position, and EnumerateFrom has the route resume there in about one
// delay. Only a union none of whose passes has drained, and an odometer
// core without a counting pass, step to it, polling the context.

import (
	"context"
	"encoding/binary"
	"errors"

	"repro/internal/database"
	"repro/internal/delay"
)

// CtxEnumerator wraps an enumerator with cooperative cancellation: Next
// reports exhaustion as soon as the context is done, and Err tells the
// two apart. It implements delay.Enumerator.
type CtxEnumerator struct {
	e    pass
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), read once: nil for a context that never ends
	err  error
	stop bool   // e is exhausted or the context ended; e is not called again
	n    uint64 // the answer offset after the last answer delivered
	vals bool   // the route's positions are answers (routeRow.headPos)
}

// Next produces the next answer unless the context has ended, in which
// case it reports ok=false and records the context error; once it has
// reported ok=false it keeps doing so. The check is a non-blocking receive
// on the done channel, which takes no lock.
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

// Err returns nil after ordinary exhaustion and the context's error when
// the enumeration was cut short. Valid once Next has returned ok=false.
func (ce *CtxEnumerator) Err() error { return ce.err }

// A pass is one enumeration pass of a route. pos is its position after
// the last answer delivered, answer offset n: one value at, or where
// positions are answers, that answer (none yet on a fresh pass).
type pass interface {
	delay.Enumerator
	pos(n uint64) (at uint64, last database.Tuple)
}

// offset decodes an answer-offset position; the empty one is 0.
func offset(pos []byte) uint64 {
	if len(pos) == 0 {
		return 0
	}
	return binary.BigEndian.Uint64(pos)
}

// AppendPos appends to b the route-native position after the last answer
// delivered, which EnumerateFrom resumes from: the answer's values on the
// linear-delay route (none yet on a fresh pass), the odometer outputs read
// on the ACQ≠ route, the answer offset elsewhere; 8 bytes big-endian per
// value. Call it before reading past the last answer to deliver.
func (ce *CtxEnumerator) AppendPos(b []byte) []byte {
	at, last := ce.e.pos(ce.n)
	if !ce.vals {
		return binary.BigEndian.AppendUint64(b, at)
	}
	for _, v := range last {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// PosLen is the width in bytes of the non-empty positions of the plan's
// passes, by the route table's rule.
func (p *Plan) PosLen() int {
	if p.route.headPos {
		return 8 * len(p.CQ.Head)
	}
	return 8
}

// ErrBadPosition rejects a position that is neither empty nor the plan's
// PosLen wide.
var ErrBadPosition = errors.New("plan: position does not fit the statement's route")

// EnumerateCtx is Enumerate with the request context threaded into the
// loop: draining the enumerator checks ctx once per answer, synchronously,
// so a deadline stops the pass within one more delay and leaves nothing
// behind.
func (pr *Prepared) EnumerateCtx(ctx context.Context, c *delay.Counter) (*CtxEnumerator, error) {
	return pr.EnumerateFrom(ctx, c, nil)
}

// EnumerateFrom is EnumerateCtx resuming after pos, a position that
// AppendPos handed out on a pass of a statement bound from the same plan
// at the same database generation; an empty pos starts at the first
// answer. Answers and their order are those of the uninterrupted pass.
// Where the route steps to pos (file header), a context ending meanwhile
// shows in Err once Next has returned false. A pos that is neither empty
// nor PosLen wide fails with ErrBadPosition.
func (pr *Prepared) EnumerateFrom(ctx context.Context, c *delay.Counter, pos []byte) (*CtxEnumerator, error) {
	if len(pos) != 0 && len(pos) != pr.plan.PosLen() {
		return nil, ErrBadPosition
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := pr.check(); err != nil {
		return nil, err
	}
	e, at, off, err := pr.r.enumerate(ctx, c, pos)
	if err != nil {
		return nil, err
	}
	ce := &CtxEnumerator{e: e, ctx: ctx, done: ctx.Done(), n: at, vals: pr.plan.route.headPos}
	for ce.n < off {
		if _, ok := ce.Next(); !ok {
			break
		}
	}
	return ce, nil
}
