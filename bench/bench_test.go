package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/plan"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got, ok := percentile(v, 0.99); got != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond it", got, ok)
	}
	if _, ok := percentile(v[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples has only nine beyond it and must not be reported")
	}
	if got, ok := percentile(v[:3], 0.5); got != 2 || !ok {
		t.Errorf("p50 of 1,2,3 = %v, %v; want 2", got, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("a percentile of no samples must not be reported")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	if m := median([]float64{1, 3}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if s := spread([]float64{90, 100, 110}); s != 0.2 {
		t.Errorf("spread = %v, want 0.2", s)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 1, Start: 15, End: 25},
		{ID: 3, Parent: 0, Start: 50, End: 90},
	}
	want := []int64{30, 20, 10, 40}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestTracerNestsAndCountsSteps(t *testing.T) {
	c := &delay.Counter{}
	tr := &tracer{on: true, steps: c}
	root := tr.begin("op", "decide")
	child := tr.begin("plan.decide", "")
	c.Tick(7)
	tr.end(child, 3)
	c.Tick(2)
	tr.end(root, 0)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[1].Steps != 7 || tr.spans[0].Steps != 9 || tr.spans[1].Answers != 3 {
		t.Errorf("steps/answers = %+v", tr.spans)
	}
	off := &tracer{}
	off.end(off.begin("op", ""), 0)
	if len(off.spans) != 0 {
		t.Errorf("a tracer that is off recorded %d spans", len(off.spans))
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (q serv) d) S 1 4242 4242 0 -1 4194560 900 0 3 0 1234 56 0 0 20 0 9 0 100 200 300"
	got, err := parseProcStat(line)
	if err != nil || got != (cpuTicks{1234, 56}) {
		t.Errorf("parseProcStat = %+v, %v; want {1234 56}", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) did not fail", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	kb, err := parseVmHWM("Name:\tqservd\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n")
	if err != nil || kb != 123456 {
		t.Errorf("parseVmHWM = %d, %v", kb, err)
	}
	if _, err := parseVmHWM("Name:\tqservd\n"); err == nil {
		t.Errorf("a status without VmHWM must fail")
	}
}

func TestParseMemStatsDelta(t *testing.T) {
	vars := func(mallocs, gcs, pause int) string {
		return fmt.Sprintf(`{"cmdline":["qservd"],"memstats":{"Alloc":1,"Mallocs":%d,"NumGC":%d,"PauseTotalNs":%d}}`, mallocs, gcs, pause)
	}
	a, err1 := parseMemStats(strings.NewReader(vars(1000, 3, 500)))
	b, err2 := parseMemStats(strings.NewReader(vars(1600, 5, 900)))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.Mallocs-a.Mallocs != 600 || b.NumGC-a.NumGC != 2 || b.PauseTotalNs-a.PauseTotalNs != 400 {
		t.Errorf("deltas from %+v to %+v", a, b)
	}
	if _, err := parseMemStats(strings.NewReader(`{"cmdline":[]}`)); err == nil {
		t.Errorf("vars without memstats must fail")
	}
}

func TestParseStream(t *testing.T) {
	body := []byte("{\"answer\":[1,2]}\n{\"answer\":[-3,40]}\n{\"count\":2,\"done\":true}\n")
	n, sum, term, err := parseStream(body, 2)
	if err != nil || n != 2 || !term.Done || term.Count != 2 {
		t.Fatalf("parseStream = %d, %+v, %v", n, term, err)
	}
	if want := tupleHash([]int64{1, 2}) + tupleHash([]int64{-3, 40}); sum != want {
		t.Errorf("checksum %x, want %x", sum, want)
	}
	for _, bad := range []string{
		"{\"answer\":[1,2]}\n",                              // no terminal record
		"{\"answer\":[1]}\n{\"count\":1,\"done\":true}\n",   // wrong arity
		"{\"count\":0,\"done\":true}\n{\"answer\":[1,2]}\n", // record before the end
	} {
		if _, _, _, err := parseStream([]byte(bad), 2); err == nil {
			t.Errorf("parseStream(%q) did not fail", bad)
		}
	}
}

// reportWith builds a one-run-per-workload report in which every metric
// reads base, except those in change.
func reportWith(base float64, change map[string]float64) *report {
	rep := &report{}
	for _, wl := range workloads {
		values := map[string]float64{}
		for _, d := range endToEndDefs {
			values[d.Name] = base
			if v, ok := change[wl.name+"/"+d.Name]; ok {
				values[d.Name] = v
			}
		}
		rep.Runs = append(rep.Runs, &runDetail{Workload: wl.name, Result: result{Correct: true, Metrics: fill(endToEndDefs, values)}})
	}
	return rep
}

func TestCompareEnforcesBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, rep); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", reportWith(100, nil))
	// worse returns the value of def that is worse than 100 by share s.
	worse := func(def metricDef, s float64) float64 {
		if def.Better == "higher" {
			return 100 * (1 - s)
		}
		return 100 * (1 + s)
	}
	for _, def := range endToEndDefs {
		for _, tc := range []struct {
			name  string
			value float64
			code  int
		}{
			{"same", 100, 0},
			{"within", worse(def, 0.9*def.Bound), 0},
			{"beyond", worse(def, 1.1*def.Bound), 1},
			{"better", worse(def, -0.5), 0},
		} {
			var out bytes.Buffer
			b := write("b.json", reportWith(100, map[string]float64{"churn_rw/" + def.Name: tc.value}))
			if code := compareReports(a, b, &out); code != tc.code {
				t.Errorf("%s %s: compare exits %d, want %d\n%s", def.Name, tc.name, code, tc.code, out.String())
			}
			if breach := strings.Contains(out.String(), "BREACH"); breach != (tc.code == 1) {
				t.Errorf("%s %s: breach named = %v\n%s", def.Name, tc.name, breach, out.String())
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sc := scales["tiny"]
	files := func(seed int64) (snap, text []byte, hashes []uint64) {
		d := buildDataset(seed, sc)
		if err := d.writeFiles(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		snap, err1 := os.ReadFile(d.snap)
		text, err2 := os.ReadFile(d.text)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for _, wl := range workloads {
			hashes = append(hashes, scriptHash(newWorld(seed, d, wl, 2), wl, 2, 200))
		}
		return snap, text, hashes
	}
	s1, t1, h1 := files(7)
	s2, t2, h2 := files(7)
	s3, t3, h3 := files(8)
	if !bytes.Equal(s1, s2) || !bytes.Equal(t1, t2) {
		t.Errorf("the same seed wrote different dataset files")
	}
	if bytes.Equal(s1, s3) || bytes.Equal(t1, t3) {
		t.Errorf("different seeds wrote the same dataset files")
	}
	for i, wl := range workloads {
		if h1[i] != h2[i] {
			t.Errorf("%s: the same seed gave different scripts", wl.name)
		}
		// scan_enum's cycle is fixed by design; its inputs vary with the data.
		if h1[i] == h3[i] && wl.name != "scan_enum" {
			t.Errorf("%s: different seeds gave the same script", wl.name)
		}
	}
}

// TestOracleAgreesWithPipeline cross-checks expect.go against the engines it
// is independent of, at n = 2^10.
func TestOracleAgreesWithPipeline(t *testing.T) {
	d := buildDataset(3, scales["tiny"])
	pd := newPairData(d.rows[pairBig.edge], d.rows[pairBig.label])
	for sh := shapeFC2; sh <= shapeChain3; sh++ {
		ex := pd.expect(sh)
		q, err := logic.ParseCQ(sh.text("Q", pairBig))
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := p.Bind(d.db)
		if err != nil {
			t.Fatal(err)
		}
		n, err := pr.Count(nil)
		if err != nil || n.Int64() != ex.count {
			t.Errorf("%s: pipeline counts %v (%v), oracle %d", sh, n, err, ex.count)
		}
		e, err := pr.Enumerate(nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		var got int64
		for tu, ok := e.Next(); ok; tu, ok = e.Next() {
			row := make([]int64, len(tu))
			for i, v := range tu {
				row[i] = int64(v)
			}
			if !ex.member(row) {
				t.Fatalf("%s: pipeline answer %v is not an oracle answer", sh, row)
			}
			sum += tupleHash(row)
			got++
		}
		if got != ex.count || sum != ex.sum || ex.count == 0 {
			t.Errorf("%s: pipeline enumerates %d answers (checksum %x), oracle %d (%x)", sh, got, sum, ex.count, ex.sum)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the harness reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why == "" {
			t.Errorf("workload %d is %+v, want %s with a reason", i, spec.Workloads[i], wl.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs)
	same("per_layer", spec.PerLayer, perLayerDefs)
}

// qservdProcesses counts live processes running the binary at path.
func qservdProcesses(t *testing.T, path string) int {
	entries, err := filepath.Glob("/proc/[0-9]*/exe")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if target, err := os.Readlink(e); err == nil && target == path {
			n++
		}
	}
	return n
}

// TestSmoke boots the real qservd on a tiny D1 and runs every workload
// measured and traced, then checks nothing is left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots qservd")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "qservd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/qservd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build qservd: %v\n%s", err, out)
	}
	t.Run("workloads", func(t *testing.T) {
		for _, wl := range workloads {
			wl := wl
			t.Run(wl.name, func(t *testing.T) {
				t.Parallel()
				o := runOpts{wl: wl, seed: 5, seconds: 3, sc: scales["tiny"], qservd: bin, clients: 2}
				code := inScratch(root, func(dir string) int {
					o.dir = dir
					for _, traced := range []bool{false, true} {
						var d *runDetail
						var err error
						if traced {
							d, err = runTraced(o, root)
						} else {
							d, err = runMeasured(o)
						}
						if err != nil {
							t.Errorf("traced=%v: %v", traced, err)
							return 1
						}
						if !d.Result.Correct || d.Result.Failed != 0 || d.Result.Attempted < minOps {
							t.Errorf("traced=%v: %+v %v", traced, d.Result, d.Errors)
						}
						defs := endToEndDefs
						if traced {
							defs = perLayerDefs
						}
						if len(d.Result.Metrics) != len(defs) {
							t.Errorf("traced=%v: %d metrics, want %d", traced, len(d.Result.Metrics), len(defs))
						}
						for _, def := range endToEndDefs {
							if !traced && d.Result.Metrics[def.Name].Value <= 0 {
								t.Errorf("%s = %v, want a positive value", def.Name, d.Result.Metrics[def.Name].Value)
							}
						}
					}
					return 0
				})
				if code != 0 {
					t.Errorf("run failed")
				}
				var tf traceFile
				b, err := os.ReadFile(filepath.Join(root, "bench", "out", wl.name+".trace.json"))
				if err == nil {
					err = json.Unmarshal(b, &tf)
				}
				if err != nil || len(tf.Handler) != wl.replayOps || len(tf.Stages) < wl.replayOps {
					t.Errorf("trace file: %v, %d handler spans, %d stage spans", err, len(tf.Handler), len(tf.Stages))
				}
			})
		}
	})
	if n := qservdProcesses(t, bin); n != 0 {
		t.Errorf("%d qservd processes are still running", n)
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run", "*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
