// Command benchgate compares two `go test -bench -benchmem` output files
// and fails (exit 1) when the new run regresses: more than -maxtime
// fractional slowdown in ns/op, any increase at all in allocs/op, more
// than -maxbytes fractional growth in B/op when that gate is on, or more
// than -maxp99 fractional growth of a p99 enumeration delay (from `qbench
// -json` reports). It is a dependency-free stand-in for benchstat, tuned as
// a CI gate rather than a statistics report.
//
// Usage:
//
//	go test -bench . -benchmem -count 5 ./internal/database > old.txt
//	... apply change ...
//	go test -bench . -benchmem -count 5 ./internal/database > new.txt
//	benchgate -old old.txt -new new.txt
//
// With -count > 1 the per-benchmark samples are reduced to their minimum
// (the least-noise estimator for "how fast can this go"), so transient
// machine noise in either file does not trip the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

var (
	oldPath  = flag.String("old", "", "baseline benchmark output")
	newPath  = flag.String("new", "", "candidate benchmark output")
	maxTime  = flag.Float64("maxtime", 0.15, "maximum allowed fractional ns/op regression")
	maxAlloc = flag.Float64("maxalloc", 0, "maximum allowed fractional allocs/op regression")
	maxBytes = flag.Float64("maxbytes", -1, "maximum allowed fractional B/op regression (negative: B/op is not gated)")
	maxP99   = flag.Float64("maxp99", 0, "maximum allowed fractional p99 delay regression (counted steps are deterministic, so zero tolerance is the default)")
)

// minBaseNS floors the ns/op ratio denominator. A zero or sub-nanosecond
// baseline (an experiment too fast for the clock, or a hand-written file)
// would otherwise blow the fractional delta up to Inf/NaN and either trip
// the gate spuriously or never trip it at all.
const minBaseNS = 0.5

// fracDelta returns (new-old)/max(old, floor): the fractional regression
// with the denominator floored so tiny baselines stay finite and sane.
func fracDelta(oldV, newV, floor float64) float64 {
	den := oldV
	if den < floor {
		den = floor
	}
	return (newV - oldV) / den
}

// sample is one benchmark result line, or one p99-delay entry of a qbench
// JSON report (hasP99 set; the other fields zero).
type sample struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
	bytesPerOp  float64
	hasBytes    bool
	p99Steps    float64
	hasP99      bool
}

// parseBench reads either `go test -bench` text output or a `qbench -json`
// report. Text benchmark lines ("BenchmarkName-8  123  45.6 ns/op ...")
// with repeated runs of the same benchmark reduce to their minimum; JSON
// reports contribute one sample per experiment (wall ns, alloc count) plus
// one p99 sample per "*delay_p99_steps" entry in an experiment's extras.
func parseBench(path string) (map[string]sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseBenchData(path, data)
}

func parseBenchData(path string, data []byte) (map[string]sample, error) {
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		var rep struct {
			Experiments []struct {
				ID     string                 `json:"id"`
				WallNS int64                  `json:"wall_ns"`
				Allocs uint64                 `json:"allocs"`
				Extra  map[string]interface{} `json:"extra"`
			} `json:"experiments"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out := map[string]sample{}
		for _, e := range rep.Experiments {
			out[e.ID] = sample{nsPerOp: float64(e.WallNS), allocsPerOp: float64(e.Allocs), hasAllocs: true}
			for k, v := range e.Extra {
				if !strings.HasSuffix(k, "delay_p99_steps") {
					continue
				}
				if f, ok := v.(float64); ok {
					out[e.ID+"/"+k] = sample{p99Steps: f, hasP99: true}
				}
			}
		}
		return out, nil
	}
	best := map[string]sample{}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so runs from machines with different
		// core counts still align.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var s sample
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = v
				ok = true
			case "allocs/op":
				s.allocsPerOp = v
				s.hasAllocs = true
			case "B/op":
				s.bytesPerOp = v
				s.hasBytes = true
			}
		}
		if !ok {
			continue
		}
		if prev, seen := best[name]; seen {
			if s.nsPerOp < prev.nsPerOp {
				prev.nsPerOp = s.nsPerOp
			}
			if s.hasAllocs && (!prev.hasAllocs || s.allocsPerOp < prev.allocsPerOp) {
				prev.allocsPerOp = s.allocsPerOp
				prev.hasAllocs = true
			}
			if s.hasBytes && (!prev.hasBytes || s.bytesPerOp < prev.bytesPerOp) {
				prev.bytesPerOp = s.bytesPerOp
				prev.hasBytes = true
			}
			best[name] = prev
		} else {
			best[name] = s
		}
	}
	return best, sc.Err()
}

// compare gates newB against oldB, writing the report to w. A negative
// maxBytes leaves B/op ungated. It returns whether any regression tripped
// a gate and whether the two files had any benchmark in common at all.
func compare(w io.Writer, oldB, newB map[string]sample, maxTime, maxAlloc, maxBytes, maxP99 float64) (failed, any bool) {
	names := make([]string, 0, len(oldB))
	for name := range oldB {
		if _, ok := newB[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, false
	}
	fmt.Fprintf(w, "%-28s %14s %14s %8s   %s\n", "benchmark", "old ns/op", "new ns/op", "Δ", "allocs old→new")
	for _, name := range names {
		o, n := oldB[name], newB[name]
		if o.hasP99 && n.hasP99 {
			// Counted-step delay quantiles: deterministic, so any growth
			// beyond -maxp99 (default zero) is a real algorithmic change.
			dp := fracDelta(o.p99Steps, n.p99Steps, 1)
			status := ""
			if dp > maxP99 {
				status = "  P99 DELAY REGRESSION"
				failed = true
			}
			fmt.Fprintf(w, "%-28s %14.0f %14.0f %+7.1f%%   (p99 delay steps)%s\n",
				name, o.p99Steps, n.p99Steps, dp*100, status)
			continue
		}
		dt := fracDelta(o.nsPerOp, n.nsPerOp, minBaseNS)
		status := ""
		if dt > maxTime {
			status = "  TIME REGRESSION"
			failed = true
		}
		alloc := ""
		if o.hasAllocs && n.hasAllocs {
			alloc = fmt.Sprintf("%.0f→%.0f", o.allocsPerOp, n.allocsPerOp)
			var da float64
			if o.allocsPerOp > 0 {
				da = (n.allocsPerOp - o.allocsPerOp) / o.allocsPerOp
			} else if n.allocsPerOp > 0 {
				da = 1 // from zero to something is always a regression
			}
			if da > maxAlloc {
				status += "  ALLOC REGRESSION"
				failed = true
			}
		}
		if maxBytes >= 0 && o.hasBytes && n.hasBytes {
			alloc += fmt.Sprintf(" %.0f→%.0f B", o.bytesPerOp, n.bytesPerOp)
			// A floor of 1 KB keeps a few stray bytes over a near-zero
			// baseline from reading as a large fraction.
			if fracDelta(o.bytesPerOp, n.bytesPerOp, 1024) > maxBytes {
				status += "  BYTES REGRESSION"
				failed = true
			}
		}
		fmt.Fprintf(w, "%-28s %14.1f %14.1f %+7.1f%%   %s%s\n",
			strings.TrimPrefix(name, "Benchmark"), o.nsPerOp, n.nsPerOp, dt*100, alloc, status)
	}
	return failed, true
}

func main() {
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		os.Exit(2)
	}
	oldB, err := parseBench(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	newB, err := parseBench(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	failed, any := compare(os.Stdout, oldB, newB, *maxTime, *maxAlloc, *maxBytes, *maxP99)
	if !any {
		// A PR that introduces the first benchmarks has no baseline to
		// regress against; pass loudly rather than block it.
		fmt.Println("benchgate: WARNING: no common benchmarks between the two files; nothing to gate")
		return
	}
	if failed {
		fmt.Printf("\nFAIL: regression beyond -maxtime=%.0f%%, -maxalloc=%.0f%%, -maxbytes=%.0f%%, or -maxp99=%.0f%%\n",
			*maxTime*100, *maxAlloc*100, *maxBytes*100, *maxP99*100)
		os.Exit(1)
	}
	fmt.Println("\nok: no benchmark regressions")
}
