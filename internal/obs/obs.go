package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/delay"
)

// Span is one completed phase span on the trace timeline. Times are
// nanoseconds relative to the Observer's epoch (New); steps are counter
// readings at the boundaries.
type Span struct {
	Phase      string `json:"phase"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	StartSteps int64  `json:"start_steps"`
	EndSteps   int64  `json:"end_steps"`
}

// Observer implements delay.Sink: it accumulates the per-output delay
// histograms (counted steps and wall nanoseconds) and the phase-span
// timeline of one instrumented run. All methods are goroutine-safe and
// nil-receiver-safe, so `var o *Observer` disables observation without a
// second code path.
type Observer struct {
	// DelaySteps and DelayNS histogram every gap between consecutive
	// enumeration emissions, in counted RAM steps and wall nanoseconds.
	DelaySteps Histogram
	DelayNS    Histogram

	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// The compile-time contract with internal/delay.
var _ delay.Sink = (*Observer)(nil)

// New creates an Observer; its epoch (span time zero) is now.
func New() *Observer {
	return &Observer{epoch: time.Now()}
}

// ObserveDelay implements delay.Sink.
func (o *Observer) ObserveDelay(steps, wallNS int64) {
	if o == nil {
		return
	}
	o.DelaySteps.Observe(steps)
	o.DelayNS.Observe(wallNS)
}

// ObserveSpan implements delay.Sink.
func (o *Observer) ObserveSpan(phase string, startSteps, endSteps int64, start, end time.Time) {
	if o == nil {
		return
	}
	s := Span{
		Phase:      phase,
		StartNS:    start.Sub(o.epoch).Nanoseconds(),
		EndNS:      end.Sub(o.epoch).Nanoseconds(),
		StartSteps: startSteps,
		EndSteps:   endSteps,
	}
	o.mu.Lock()
	o.spans = append(o.spans, s)
	o.mu.Unlock()
}

// Spans returns a copy of the recorded spans in start order.
func (o *Observer) Spans() []Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	out := append([]Span(nil), o.spans...)
	o.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// PhaseSummary aggregates the spans of one phase.
type PhaseSummary struct {
	Phase  string `json:"phase"`
	Spans  int    `json:"spans"`
	WallNS int64  `json:"wall_ns"` // summed span wall time (overlaps counted once per span)
}

// Trace is the machine-readable dump of one Observer, written by
// `qbench -trace` / `qeval -trace` and consumed by humans, plotting
// scripts, and cmd/benchgate's p99 gate.
type Trace struct {
	Label       string            `json:"label,omitempty"`
	DelaySteps  HistogramSnapshot `json:"delay_steps"`
	DelayWallNS HistogramSnapshot `json:"delay_wall_ns"`
	Phases      []PhaseSummary    `json:"phases,omitempty"`
	Spans       []Span            `json:"spans,omitempty"`
}

// Snapshot dumps the observer under the given label.
func (o *Observer) Snapshot(label string) Trace {
	if o == nil {
		return Trace{Label: label}
	}
	spans := o.Spans()
	byPhase := map[string]*PhaseSummary{}
	var order []string
	for _, s := range spans {
		p, ok := byPhase[s.Phase]
		if !ok {
			p = &PhaseSummary{Phase: s.Phase}
			byPhase[s.Phase] = p
			order = append(order, s.Phase)
		}
		p.Spans++
		p.WallNS += s.EndNS - s.StartNS
	}
	tr := Trace{
		Label:       label,
		DelaySteps:  o.DelaySteps.Snapshot(),
		DelayWallNS: o.DelayNS.Snapshot(),
		Spans:       spans,
	}
	for _, ph := range order {
		tr.Phases = append(tr.Phases, *byPhase[ph])
	}
	return tr
}

// WriteTrace JSON-encodes traces (indented) to w.
func WriteTrace(w io.Writer, traces []Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traces)
}

// --- expvar hook ------------------------------------------------------

var (
	pubMu  sync.Mutex
	pubObs = map[string]*Observer{}
)

// Publish exposes the observer's snapshot as the expvar variable `name`
// (reachable via the standard /debug/vars endpoint next to pprof). Unlike
// expvar.Publish it is re-entrant: publishing a second observer under the
// same name atomically replaces the first instead of panicking, so a
// long-running process can rotate observers per query batch.
func (o *Observer) Publish(name string) {
	pubMu.Lock()
	defer pubMu.Unlock()
	if _, ok := pubObs[name]; !ok {
		n := name
		expvar.Publish(n, expvar.Func(func() interface{} {
			pubMu.Lock()
			cur := pubObs[n]
			pubMu.Unlock()
			return cur.Snapshot(n)
		}))
	}
	pubObs[name] = o
}
