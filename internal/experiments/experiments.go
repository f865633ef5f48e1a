// Package experiments is the E-series written once. The paper has no
// evaluation tables, so each experiment validates the shape of one
// theorem's bound (DESIGN.md §4); every experiment is a single
// declaration — instance builder, query text, named measured operations,
// sweep sizes, invariant checks and "shape:" footer — that cmd/qbench
// prints as a table and bench_test.go runs as sub-benchmarks. Neither
// driver holds an instance, a query string or an engine call.
//
// Adding an experiment: declare an Experiment value whose Tables build
// their Ops, append it to All in registry.go, and give it a DESIGN.md §4
// row and an "## E<n>" section in EXPERIMENTS.md (registry_test.go checks).
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/delay"
	"repro/internal/obs"
)

// Mode selects which of a table's size lists a run sweeps.
type Mode int

const (
	Full  Mode = iota // qbench at default sizes
	Quick             // qbench -quick
	Bench             // go test -bench: fixed sizes, b.N iterations per op
)

// Experiment is one entry of the E-series.
type Experiment struct {
	ID, Title string
	Tables    []Table
	Shape     []string // footer: the bound's shape the tables should show
}

// Table is one section of an experiment: a sweep of named operations over
// instance sizes, or a free-form Note.
type Table struct {
	Bench string   // BenchmarkXxx suffix whose sub-benchmarks are this table's ops; "" = qbench only
	Param string   // swept parameter in sub-benchmark names ("n": Op/n=4096); "" = no suffix
	Intro []string // printed above the header
	Cols  []string // "header:width[.precision]"; cells past the last print bare
	Sizes [3][]int // indexed by Mode; a table without Full sizes is go test -bench only
	// Setup starts one sweep; state shared across its sizes (and with Row
	// and After) lives in the closure, and dynamic intro lines print here.
	Setup func(r *Run) Sweep
	Note  func(r *Run) error
}

// Sweep is one run of a table. Build makes the instance of size n and
// returns its operations — which the table driver measures once each, in
// order, and the bench driver runs b.N times — with the Row that reads
// them (nil for a bench-only table); After prints what follows the last row.
type Sweep struct {
	Build func(n int) ([]Op, Row, error)
	After func() error
}

// Row turns the measurements of a size's ops into the cells of its table
// row, and returns an error when an invariant of the experiment is violated.
type Row func(m []Measured) ([]any, error)

// Op is one named measured operation: exactly one of Do and Enum is set.
// An Enum's preprocessing and per-output delays are measured by
// delay.Measure; the bench driver drains it with delay.Collect.
type Op struct {
	Name    string // sub-benchmark name; "" with an empty Param runs on the parent benchmark itself
	Label   string // -trace/-json label (suffixed _n<size>); "" = run without a counter
	Reps    int    // table runs per measurement (default 1)
	NoBench bool   // skipped by go test -bench at this size
	Do      func(c *delay.Counter) (any, error)
	Enum    func(c *delay.Counter) (delay.Enumerator, error)
	Metric  func() (unit string, total float64) // extra per-op bench metric, reported as total/b.N
}

// Measured is what the table driver observed of one Op.
type Measured struct {
	delay.Stats               // the last repetition of an Enum
	Value       any           // the last result of a Do
	Wall, Best  time.Duration // all repetitions (preprocessing plus drain), and the fastest
	Steps       int64         // counted steps of all repetitions
}

// Run carries one experiment run: the caller sets the exported
// configuration and reads Extra and Traces back afterwards.
type Run struct {
	Mode     Mode
	Parallel int       // E18 worker count; 0 = GOMAXPROCS
	Repeat   int       // E19 executions per query
	Observe  bool      // attach an obs.Observer to every labelled counter
	Out      io.Writer // nil discards the tables

	Extra  map[string]any // -json extras recorded by the experiment
	Traces []obs.Trace    // one per labelled counter, when Observe is set

	rngs      map[int64]*rand.Rand
	dirs      []string
	observers []observer
}

type observer struct {
	label string
	o     *obs.Observer
}

// Printf writes one line of table output.
func (r *Run) Printf(format string, a ...any) {
	if r.Out != nil {
		fmt.Fprintf(r.Out, format, a...)
	}
}

// Record stores one -json extra.
func (r *Run) Record(key string, v any) {
	if r.Extra == nil {
		r.Extra = map[string]any{}
	}
	r.Extra[key] = v
}

// RecordAt stores -json extras keyed n<size>_<name>, given as name, value
// pairs.
func (r *Run) RecordAt(n int, kv ...any) {
	for i := 0; i+1 < len(kv); i += 2 {
		r.Record(fmt.Sprintf("n%d_%v", n, kv[i]), kv[i+1])
	}
}

// Pick returns the value for the run's mode.
func (r *Run) Pick(full, quick, bench int) int { return [3]int{full, quick, bench}[r.Mode] }

// Rand returns the run's generator for seed, created on first use, so one
// stream threads through every size (and table) that names the seed and a
// fresh run replays it.
func (r *Run) Rand(seed int64) *rand.Rand {
	if r.rngs == nil {
		r.rngs = map[int64]*rand.Rand{}
	}
	if r.rngs[seed] == nil {
		r.rngs[seed] = rand.New(rand.NewSource(seed))
	}
	return r.rngs[seed]
}

// TempDir returns a fresh directory removed when the experiment returns.
func (r *Run) TempDir() (string, error) {
	dir, err := os.MkdirTemp("", "experiments-*")
	if err == nil {
		r.dirs = append(r.dirs, dir)
	}
	return dir, err
}

// counter returns the step counter of one labelled operation; with Observe
// an obs.Observer is attached as its sink, otherwise the observability
// hooks cost one branch (see internal/obs).
func (r *Run) counter(label string) *delay.Counter {
	if label == "" {
		return nil
	}
	c := &delay.Counter{}
	if r.Observe {
		o := obs.New()
		c.SetSink(o)
		r.observers = append(r.observers, observer{label, o})
	}
	return c
}

// finish removes the temp dirs and folds every observer into Traces, and
// its delay quantiles into Extra (where cmd/benchgate's p99 gate reads them).
func (r *Run) finish(id string) {
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
	for _, ob := range r.observers {
		snap := ob.o.Snapshot(id + "/" + ob.label)
		r.Traces = append(r.Traces, snap)
		if snap.DelaySteps.Count > 0 {
			r.Record(ob.label+"_delay_p99_steps", snap.DelaySteps.P99)
			r.Record(ob.label+"_delay_max_steps", snap.DelaySteps.Max)
		}
	}
	r.dirs, r.observers = nil, nil
}

// Run prints the experiment's tables to r.Out. An error names the
// experiment and the violated invariant or failed call; what was recorded
// up to it stays in r.
func (e *Experiment) Run(r *Run) error {
	defer r.finish(e.ID)
	for i := range e.Tables {
		if err := e.Tables[i].run(r); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	for _, l := range e.Shape {
		r.Printf("%s\n", l)
	}
	return nil
}

func (t *Table) run(r *Run) error {
	if t.Note == nil && len(t.Sizes[r.Mode]) == 0 {
		return nil
	}
	for _, l := range t.Intro {
		r.Printf("%s\n", l)
	}
	if t.Note != nil {
		return t.Note(r)
	}
	sw := t.Setup(r)
	cols := make([]column, len(t.Cols))
	heads := make([]any, len(t.Cols))
	for i, spec := range t.Cols {
		cols[i] = parseColumn(spec)
		heads[i] = cols[i].head
	}
	if len(cols) > 0 {
		printRow(r, cols, heads)
	}
	for _, n := range t.Sizes[r.Mode] {
		if err := sw.row(r, cols, n); err != nil {
			return fmt.Errorf("at %s=%d: %w", cmp.Or(t.Param, "size"), n, err)
		}
	}
	if sw.After != nil {
		return sw.After()
	}
	return nil
}

// row builds, measures and prints one size.
func (sw Sweep) row(r *Run, cols []column, n int) error {
	ops, row, err := sw.Build(n)
	if err != nil {
		return err
	}
	m := make([]Measured, len(ops))
	for i, op := range ops {
		if m[i], err = op.measure(r, n); err != nil {
			return fmt.Errorf("%s: %w", op.Name, err)
		}
	}
	cells, err := row(m)
	if err == nil {
		printRow(r, cols, cells)
	}
	return err
}

// printRow prints one line of space-separated cells, each formatted by its
// column; cells past the last column print bare.
func printRow(r *Run, cols []column, cells []any) {
	line := make([]string, len(cells))
	for i, v := range cells {
		if i < len(cols) {
			line[i] = cols[i].format(v)
		} else {
			line[i] = fmt.Sprint(v)
		}
	}
	r.Printf("%s\n", strings.Join(line, " "))
}

// measure runs the op Reps times under one counter.
func (op Op) measure(r *Run, n int) (Measured, error) {
	var m Measured
	var c *delay.Counter
	if op.Label != "" {
		c = r.counter(op.Label + "_n" + strconv.Itoa(n))
	}
	for i := 0; i < max(op.Reps, 1); i++ {
		t0 := time.Now()
		var err error
		if op.Enum != nil {
			m.Stats, _ = delay.Measure(c, func() delay.Enumerator {
				var e delay.Enumerator
				if e, err = op.Enum(c); err != nil {
					return delay.Empty()
				}
				return e
			})
		} else {
			m.Value, err = op.Do(c)
		}
		if err != nil {
			return m, err
		}
		d := time.Since(t0)
		m.Wall += d
		if i == 0 || d < m.Best {
			m.Best = d
		}
	}
	m.Steps = c.Steps()
	return m, nil
}

// Once runs the op the way one b.N iteration does: no counter, an
// enumerator drained into a slice.
func (op Op) Once() error {
	if op.Enum == nil {
		_, err := op.Do(nil)
		return err
	}
	e, err := op.Enum(nil)
	if err == nil {
		delay.Collect(e)
	}
	return err
}

// BenchOps builds the table's instance of the i-th Bench size from a fresh
// sweep — replaying the smaller sizes first, since a seeded generator
// threads through them — and returns the ops go test -bench runs on it.
func (t *Table) BenchOps(i int) ([]Op, error) {
	sw := t.Setup(&Run{Mode: Bench})
	var ops []Op
	for _, n := range t.Sizes[Bench][:i+1] {
		var err error
		if ops, _, err = sw.Build(n); err != nil {
			return nil, err
		}
	}
	kept := ops[:0]
	for _, op := range ops {
		if !op.NoBench {
			kept = append(kept, op)
		}
	}
	return kept, nil
}

// column is one parsed Cols entry.
type column struct {
	head        string
	width, prec int // prec < 0: not a float column
}

func parseColumn(spec string) column {
	i := strings.LastIndex(spec, ":")
	w, p, isFloat := strings.Cut(spec[i+1:], ".")
	c := column{head: spec[:i], prec: -1}
	c.width, _ = strconv.Atoi(w)
	if isFloat {
		c.prec, _ = strconv.Atoi(p)
	}
	return c
}

// format renders one cell left-aligned: floats at the column's precision,
// durations from 10µs up rounded to the microsecond.
func (c column) format(v any) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%-*.*f", c.width, max(c.prec, 0), x)
	case time.Duration:
		if x >= 10*time.Microsecond {
			v = x.Round(time.Microsecond)
		}
	}
	return fmt.Sprintf("%-*v", c.width, v)
}
