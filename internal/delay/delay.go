// Package delay provides the enumeration framework of Section 2.3.3: an
// Enumerator interface producing answers one by one, and instrumentation
// measuring the preprocessing cost and the delay between consecutive
// outputs, both in wall time and in counted RAM steps. The step counter
// makes "constant delay" an observable quantity independent of cache and
// allocator noise.
package delay

import (
	"sync/atomic"
	"time"

	"repro/internal/database"
)

// Enumerator produces the answers of a query one by one, with no
// repetition. Next returns the next answer, or ok=false when exhausted.
// The returned tuple may be overwritten by the following Next call; callers
// that retain tuples must Clone them.
type Enumerator interface {
	Next() (t database.Tuple, ok bool)
}

// Func adapts a function to the Enumerator interface.
type Func func() (database.Tuple, bool)

// Next calls the function.
func (f Func) Next() (database.Tuple, bool) { return f() }

// Empty is an enumerator with no answers.
func Empty() Enumerator {
	return Func(func() (database.Tuple, bool) { return nil, false })
}

// Singleton yields exactly one answer (used for true Boolean queries, whose
// single answer is the empty tuple).
func Singleton(t database.Tuple) Enumerator {
	done := false
	return Func(func() (database.Tuple, bool) {
		if done {
			return nil, false
		}
		done = true
		return t, true
	})
}

// Slice enumerates a materialized answer list.
func Slice(ts []database.Tuple) Enumerator {
	i := 0
	return Func(func() (database.Tuple, bool) {
		if i >= len(ts) {
			return nil, false
		}
		t := ts[i]
		i++
		return t, true
	})
}

// Collect drains an enumerator into a slice, cloning each answer.
func Collect(e Enumerator) []database.Tuple {
	var out []database.Tuple
	for {
		t, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, t.Clone())
	}
}

// Sink receives observability events from an instrumented run: per-output
// enumeration delays and completed phase spans. internal/obs provides the
// standard implementation (log-bucketed histograms plus a span timeline);
// the indirection keeps this package dependency-free. Implementations must
// be goroutine-safe: one sink may be shared by concurrent runs.
type Sink interface {
	// ObserveDelay records the gap between two consecutive enumeration
	// emissions, in counted RAM steps and wall nanoseconds.
	ObserveDelay(steps, wallNS int64)
	// ObserveSpan records a completed phase span (parse, tree-build,
	// semijoin-reduce, enumerate, count, join) with the counter values and
	// wall clock at its boundaries.
	ObserveSpan(phase string, startSteps, endSteps int64, start, end time.Time)
}

// Counter counts elementary RAM steps. Engines call Tick at each elementary
// operation (index probe, cursor advance, comparison). A nil Counter is
// valid and counts nothing, so instrumentation is zero-cost to disable.
// Tick and Steps are goroutine-safe, so one counter may be shared by
// concurrent runs: the counted total is then the sum of their sequential
// work.
//
// A Counter optionally carries a Sink. The sink never affects the counted
// steps — observation hooks (MarkOutput, StartSpan) read the counter but
// never Tick it — and with a nil counter or nil sink every hook is a
// branch-and-return: the disabled path costs no allocation and no clock
// read (pinned by the allocation tests in internal/obs).
type Counter struct {
	steps atomic.Int64

	// sink is set once by SetSink before the counter is shared; lastSteps
	// and lastNS belong to the single goroutine draining an enumerator.
	sink      Sink
	lastSteps int64
	lastNS    int64
}

// SetSink attaches an observability sink. It must be called before the
// counter is shared with other goroutines (engines never mutate the sink).
// A nil sink detaches.
func (c *Counter) SetSink(s Sink) {
	if c != nil {
		c.sink = s
	}
}

// MarkStart begins a delay measurement sequence: the next MarkOutput
// reports the gap from this point. Call it when preprocessing hands over
// the enumerator. No-op without a sink.
func (c *Counter) MarkStart() {
	if c == nil || c.sink == nil {
		return
	}
	c.lastSteps = c.steps.Load()
	c.lastNS = time.Now().UnixNano()
}

// MarkOutput records one enumeration emission boundary: the counted steps
// and wall nanoseconds since the previous mark are forwarded to the sink
// and the mark advances. Call it after every Next — including the final,
// exhausted one, so the last gap (output to exhaustion) is observed like
// the Stats.MaxDelay* fields. No-op without a sink.
func (c *Counter) MarkOutput() {
	if c == nil || c.sink == nil {
		return
	}
	s := c.steps.Load()
	now := time.Now().UnixNano()
	c.sink.ObserveDelay(s-c.lastSteps, now-c.lastNS)
	c.lastSteps, c.lastNS = s, now
}

// SpanMark is an open phase span returned by StartSpan; End closes it and
// reports it to the sink. The zero SpanMark (returned when observability is
// disabled) is valid and End on it is a no-op, so the calling convention is
// unconditional:
//
//	m := c.StartSpan("semijoin-reduce")
//	... phase work ...
//	m.End()
type SpanMark struct {
	c     *Counter
	phase string
	steps int64
	start time.Time
}

// StartSpan opens a phase span. With a nil counter or no sink it returns
// the zero SpanMark without reading the clock.
func (c *Counter) StartSpan(phase string) SpanMark {
	if c == nil || c.sink == nil {
		return SpanMark{}
	}
	return SpanMark{c: c, phase: phase, steps: c.steps.Load(), start: time.Now()}
}

// End closes the span and reports it.
func (m SpanMark) End() {
	if m.c == nil || m.c.sink == nil {
		return
	}
	m.c.sink.ObserveSpan(m.phase, m.steps, m.c.steps.Load(), m.start, time.Now())
}

// Tick records n elementary steps.
func (c *Counter) Tick(n int64) {
	if c != nil {
		c.steps.Add(n)
	}
}

// Steps returns the number of recorded steps.
func (c *Counter) Steps() int64 {
	if c == nil {
		return 0
	}
	return c.steps.Load()
}

// Stats summarizes an instrumented enumeration run.
type Stats struct {
	Outputs int // number of answers produced

	// Counted RAM steps.
	PreprocessSteps int64 // steps before the enumerator was handed over
	MaxDelaySteps   int64 // max steps between consecutive outputs (incl. first and exhaustion)
	TotalSteps      int64 // total steps during enumeration

	// Wall clock.
	PreprocessTime time.Duration
	MaxDelayTime   time.Duration
	TotalTime      time.Duration
}

// Measure runs build (the preprocessing phase, which returns an enumerator
// sharing the given counter) and drains the enumerator, recording
// per-output delays. It reports the stats and the collected answers.
// The counter need not be fresh: Measure snapshots it at entry and reports
// only the steps recorded during this run, so a counter may be reused
// across measurements.
//
// When the counter carries a Sink, Measure additionally feeds it every
// per-output delay (the same gaps that MaxDelaySteps/MaxDelayTime maximize
// over, including the final output-to-exhaustion gap) and one "enumerate"
// phase span covering the drain. The sink observes, never ticks: counted
// steps are bit-identical with and without it.
func Measure(c *Counter, build func() Enumerator) (Stats, []database.Tuple) {
	var s Stats
	base := c.Steps()
	t0 := time.Now()
	e := build()
	s.PreprocessSteps = c.Steps() - base
	s.PreprocessTime = time.Since(t0)

	var out []database.Tuple
	c.MarkStart()
	span := c.StartSpan("enumerate")
	last := c.Steps()
	lastT := time.Now()
	for {
		t, ok := e.Next()
		c.MarkOutput()
		now := c.Steps()
		nowT := time.Now()
		d := now - last
		if d > s.MaxDelaySteps {
			s.MaxDelaySteps = d
		}
		if dt := nowT.Sub(lastT); dt > s.MaxDelayTime {
			s.MaxDelayTime = dt
		}
		last, lastT = now, nowT
		if !ok {
			break
		}
		s.Outputs++
		out = append(out, t.Clone())
	}
	span.End()
	s.TotalSteps = c.Steps() - base - s.PreprocessSteps
	s.TotalTime = time.Since(t0) - s.PreprocessTime
	return s, out
}

// Dedup wraps an enumerator, filtering out tuples already produced. It is
// used by union enumerators (Section 4.2); the memory grows with the output,
// as permitted for enumeration algorithms.
func Dedup(e Enumerator, c *Counter) Enumerator {
	seen := map[int]*database.KeyMap{} // per tuple width
	return Func(func() (database.Tuple, bool) {
		for {
			t, ok := e.Next()
			if !ok {
				return nil, false
			}
			km := seen[len(t)]
			if km == nil {
				km = database.NewKeyMap(len(t))
				seen[len(t)] = km
			}
			c.Tick(1)
			if n := km.Len(); km.Intern(t, nil) == n {
				return t, true
			}
		}
	})
}

// Concat chains enumerators one after the other.
func Concat(es ...Enumerator) Enumerator {
	i := 0
	return Func(func() (database.Tuple, bool) {
		for i < len(es) {
			if t, ok := es[i].Next(); ok {
				return t, true
			}
			i++
		}
		return nil, false
	})
}
