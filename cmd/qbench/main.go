// Command qbench regenerates every experiment of DESIGN.md that the
// registry of internal/experiments holds (E1–E24 but the retired E18),
// printing one paper-style table per experiment. Each experiment validates
// the *shape* of a complexity bound stated in the paper — linear scaling,
// constant vs linear delay, the n^k star-size sweep, the
// matrix-multiplication reduction, and so on — or of the serving layer
// built on them (E21, E23: open-loop traffic against serve in process).
// This file is flags plus the -json/-trace/profile driver; the experiments
// themselves live in the registry.
//
// Usage:
//
//	qbench            # run everything at default sizes
//	qbench -quick     # smaller sizes
//	qbench -run E5    # a single experiment
//
// An experiment that fails an invariant stops the run: qbench still writes
// the -json/-trace files with what it has, names the experiment, and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// expReport is one experiment's entry in the -json report. Allocs and
// AllocBytes are runtime.MemStats deltas across the experiment, so they
// include instance generation; the per-operation numbers live in the
// internal/database micro-benchmarks.
type expReport struct {
	ID         string         `json:"id"`
	Title      string         `json:"title"`
	WallNS     int64          `json:"wall_ns"`
	Allocs     uint64         `json:"allocs"`
	AllocBytes uint64         `json:"alloc_bytes"`
	Extra      map[string]any `json:"extra,omitempty"`
	Error      string         `json:"error,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], experiments.All, os.Stdout, os.Stderr)) }

// run is main over an explicit registry; it returns the exit status.
func run(args []string, registry []*experiments.Experiment, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "smaller instance sizes")
	only := fs.String("run", "", "run a subset of experiments (comma-separated, e.g. E5,E19)")
	repeat := fs.Int("repeat", 8, "executions per query in the plan-cache amortization experiment (E19)")
	jsonOut := fs.String("json", "", "write a machine-readable report (wall ns, allocs, counted steps) to this file")
	traceOut := fs.String("trace", "", "write an observability trace (delay histograms, phase spans) to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := experiments.Select(registry, *only)
	if err != nil {
		fmt.Fprintf(stderr, "qbench: %v\n", err)
		return 2
	}

	status := 0
	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(stderr, "qbench: %v\n", err)
			status = 1
		}
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fail(err)
			return status
		}
		defer func() { fail(stop()) }()
	}
	mode := experiments.Full
	if *quick {
		mode = experiments.Quick
	}
	var reports []expReport
	var traces []obs.Trace
	for _, e := range selected {
		fmt.Fprintf(stdout, "\n=== %s: %s ===\n", e.ID, e.Title)
		r := &experiments.Run{Mode: mode, Repeat: *repeat,
			Observe: *traceOut != "" || *jsonOut != "", Out: stdout}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		err := e.Run(r)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		rep := expReport{ID: e.ID, Title: e.Title, WallNS: wall.Nanoseconds(),
			Allocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc, Extra: r.Extra}
		traces = append(traces, r.Traces...)
		if err != nil {
			// Stop at the first failed experiment, but fall through to the
			// report writers: what ran so far is still worth having.
			rep.Error = err.Error()
			reports = append(reports, rep)
			fail(fmt.Errorf("experiment failed: %w", err))
			break
		}
		reports = append(reports, rep)
		fmt.Fprintf(stdout, "[%s done in %v]\n", e.ID, wall.Round(time.Millisecond))
	}
	if *memprofile != "" {
		fail(obs.WriteHeapProfile(*memprofile))
	}
	if *traceOut != "" {
		fail(writeFile(*traceOut, stdout, func(w io.Writer) error { return obs.WriteTrace(w, traces) }))
	}
	if *jsonOut != "" {
		out := struct {
			GoVersion   string      `json:"go_version"`
			GOMAXPROCS  int         `json:"gomaxprocs"`
			Quick       bool        `json:"quick"`
			Experiments []expReport `json:"experiments"`
		}{runtime.Version(), runtime.GOMAXPROCS(0), *quick, reports}
		fail(writeFile(*jsonOut, stdout, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(out)
		}))
	}
	return status
}

// writeFile creates path, fills it with write, and reports it on stdout.
func writeFile(path string, stdout io.Writer, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	return nil
}
