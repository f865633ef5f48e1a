package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// report is the full-mode output: every run of one invocation and the
// conditions it ran under.
type report struct {
	Commit          string       `json:"commit"`
	GoVersion       string       `json:"go_version"`
	NProc           int          `json:"nproc"`
	HarnessMaxProcs int          `json:"harness_gomaxprocs"`
	ServerMaxProcs  int          `json:"server_gomaxprocs"`
	Clients         int          `json:"clients"`
	Seed            int64        `json:"seed"`
	WindowSeconds   float64      `json:"window_seconds"`
	Scale           string       `json:"scale"`
	Claim           *string      `json:"claim"` // this benchmark claims no gain
	Runs            []*runDetail `json:"runs"`
}

func printDetail(w io.Writer, d *runDetail) {
	kind, defs := "end-to-end", endToEndDefs
	if d.Trace {
		kind, defs = "per-layer", perLayerDefs
	}
	fmt.Fprintf(w, "== %s seed=%d %s: attempted=%d failed=%d correct=%v loadavg=%.2f\n",
		d.Workload, d.Seed, kind, d.Result.Attempted, d.Result.Failed, d.Result.Correct, d.LoadAvg)
	for _, def := range defs {
		m := d.Result.Metrics[def.Name]
		fmt.Fprintf(w, "  %-32s %14.4f %-6s", def.Name, m.Value, m.Unit)
		if s, ok := d.Spread[def.Name]; ok {
			fmt.Fprintf(w, "  window spread %4.1f%%", 100*s)
		}
		fmt.Fprintln(w)
	}
	for _, name := range classNames {
		if c, ok := d.Classes[name]; ok {
			fmt.Fprintf(w, "  class %-10s %8d ops  p50 %10.4f ms\n", name, c.Ops, c.P50ms)
		}
	}
	for _, e := range d.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	for _, n := range d.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// awaitQuietHost waits for the 1-minute load average to fall to half the
// processors: above that something else is running and the numbers would
// measure it. The harness's own load between runs is why only full mode,
// before its first workload, checks this.
func awaitQuietHost() error {
	limit := float64(runtime.NumCPU()) / 2
	for deadline := time.Now().Add(90 * time.Second); ; time.Sleep(5 * time.Second) {
		la, err := loadAvg1()
		if err != nil || la <= limit {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("1-minute load average %.2f stays above %.1f; the host is busy", la, limit)
		}
		fmt.Fprintf(os.Stderr, "bench: load average %.2f > %.1f, waiting\n", la, limit)
	}
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func serverMaxProcs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// runAll is full mode: every workload measured, then traced.
func runAll(o runOpts, root, out string) int {
	if err := awaitQuietHost(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := &report{Commit: gitCommit(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		HarnessMaxProcs: runtime.GOMAXPROCS(0), ServerMaxProcs: serverMaxProcs(), Clients: o.clients,
		Seed: o.seed, WindowSeconds: o.seconds / numWindows, Scale: o.sc.name}
	code := 0
	for _, wl := range workloads {
		o.wl = wl
		d, err := runMeasured(o)
		if err == nil && d.Spread["ops_per_s"] > 0.10 {
			// A noisy set is measured once more and both are kept: a reader
			// sees the disagreement, and -compare takes the medians.
			d.Noisy = true
			rep.Runs = append(rep.Runs, d)
			printDetail(os.Stdout, d)
			d, err = runMeasured(o)
		}
		if err == nil {
			rep.Runs = append(rep.Runs, d)
			printDetail(os.Stdout, d)
			d, err = runTraced(o, root)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		rep.Runs = append(rep.Runs, d)
		printDetail(os.Stdout, d)
	}
	for _, d := range rep.Runs {
		if !d.Result.Correct {
			code = 1
		}
	}
	if out == "" {
		out = filepath.Join(root, "bench", "out", fmt.Sprintf("run-%d.json", o.seed))
	}
	if err := writeJSON(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("report:", out)
	return code
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// endToEndOf gathers a report's end-to-end values per workload; a workload
// measured twice (noisy) contributes the median of its runs.
func endToEndOf(rep *report) map[string]map[string]float64 {
	runs := map[string]map[string][]float64{}
	for _, d := range rep.Runs {
		if d.Trace {
			continue
		}
		if runs[d.Workload] == nil {
			runs[d.Workload] = map[string][]float64{}
		}
		for name, m := range d.Result.Metrics {
			runs[d.Workload][name] = append(runs[d.Workload][name], m.Value)
		}
	}
	out := map[string]map[string]float64{}
	for wl, ms := range runs {
		out[wl] = map[string]float64{}
		for name, v := range ms {
			out[wl][name] = median(v)
		}
	}
	return out
}

// worsening is by what share of a the value b is worse, negative when b is
// better.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints every end-to-end metric × workload of report b
// against report a with its bound, and returns 1 if any is worse by more.
func compareReports(pathA, pathB string, w io.Writer) int {
	var reps [2]report
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := endToEndOf(&reps[0]), endToEndOf(&reps[1])
	code := 0
	fmt.Fprintf(w, "%-11s %-22s %14s %14s %8s %6s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, wl := range workloads {
		for _, def := range endToEndDefs {
			va, okA := a[wl.name][def.Name]
			vb, okB := b[wl.name][def.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-11s %-22s missing from a report\n", wl.name, def.Name)
				code = 1
				continue
			}
			d := worsening(def, va, vb)
			mark := ""
			if d > def.Bound {
				mark, code = "  BREACH", 1
			}
			fmt.Fprintf(w, "%-11s %-22s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", wl.name, def.Name, va, vb, 100*d, 100*def.Bound, mark)
		}
	}
	return code
}
