// Command bench is the repository's benchmark: it generates dataset D1 from a
// seed, boots the qservd built from this checkout as a separate process on
// the generated files, drives it over HTTP in a closed loop, checks every
// answer and prints the metrics BENCHMARK.json names. See README.md.
//
// It is started through run.sh, which builds qservd and this harness:
//
//	bash bench/run.sh --workload churn_rw --seed 7 --seconds 15 --trace 0   # one run, as the driver does
//	bash bench/run.sh -seed 42                                              # all workloads, measured and traced
//	bash bench/run.sh -compare a.json b.json                                # two reports against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	var (
		qservd   = flag.String("qservd", "", "path of the qservd binary built from this checkout (run.sh sets it)")
		root     = flag.String("root", ".", "root of the checkout (run.sh sets it)")
		workload = flag.String("workload", "", "run this one workload and print one result object; empty runs all four")
		seed     = flag.Int64("seed", 42, "seed of dataset, mutation script and op scripts")
		seconds  = flag.Float64("seconds", 40, "measured seconds per run, cut into five windows")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		scaleArg = flag.String("scale", "full", "dataset scale: full, or tiny for the smoke test")
		compare  = flag.Bool("compare", false, "compare two full-mode reports: -compare a.json b.json")
		out      = flag.String("out", "", "full mode: write the report here (default bench/out/run-<seed>.json)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	sc, ok := scales[*scaleArg]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scaleArg))
	}
	if *qservd == "" {
		fatal(fmt.Errorf("-qservd is required; start the benchmark with bench/run.sh"))
	}
	o := runOpts{seed: *seed, seconds: *seconds, sc: sc, qservd: *qservd, clients: clientCount()}
	os.Exit(inScratch(*root, func(dir string) int {
		o.dir = dir
		return run(o, *root, *workload, *trace != 0, *out)
	}))
}

// inScratch runs f with a fresh scratch directory under root's build
// directory and removes it on every exit path the harness controls, signals
// included. Server processes need no such care: they die with the harness
// (Pdeathsig) and every run stops its own before returning.
func inScratch(root string, f func(dir string) int) int {
	base := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(base, "w-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer close(done)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()
	return f(dir)
}

// clientCount sizes the closed loop to the host: one client per processor up
// to four, so generator and server are not starved of cores by each other.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func run(o runOpts, root, workload string, trace bool, out string) int {
	if workload == "" {
		return runAll(o, root, out)
	}
	if o.wl = findWorkload(workload); o.wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
		return 2
	}
	var d *runDetail
	var err error
	if trace {
		d, err = runTraced(o, root)
	} else {
		d, err = runMeasured(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printDetail(os.Stderr, d)
	line, err := json.Marshal(d.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
