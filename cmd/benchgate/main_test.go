package main

import (
	"math"
	"strings"
	"testing"
)

func TestFracDeltaZeroBaseline(t *testing.T) {
	cases := []struct {
		old, new, floor, want float64
	}{
		{0, 0, minBaseNS, 0},
		{0, 100, minBaseNS, 200}, // 100/0.5 — large but finite
		{100, 115, minBaseNS, 0.15},
		{0.1, 0.2, minBaseNS, 0.2}, // sub-floor baseline clamps the denominator
		{0, 3, 1, 3},
	}
	for _, c := range cases {
		got := fracDelta(c.old, c.new, c.floor)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("fracDelta(%v, %v, %v) = %v; want finite", c.old, c.new, c.floor, got)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("fracDelta(%v, %v, %v) = %v, want %v", c.old, c.new, c.floor, got, c.want)
		}
	}
}

func TestCompareZeroBaselineNoPanicNoInf(t *testing.T) {
	oldB := map[string]sample{"BenchmarkFast": {nsPerOp: 0, allocsPerOp: 0, hasAllocs: true}}
	newB := map[string]sample{"BenchmarkFast": {nsPerOp: 0, allocsPerOp: 0, hasAllocs: true}}
	var b strings.Builder
	failed, any := compare(&b, oldB, newB, 0.15, 0, -1, 0)
	if !any {
		t.Fatal("common benchmark not compared")
	}
	if failed {
		t.Errorf("identical zero-baseline run flagged as regression:\n%s", b.String())
	}
	if out := b.String(); strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("report contains Inf/NaN:\n%s", out)
	}
}

func TestCompareTimeRegression(t *testing.T) {
	oldB := map[string]sample{"BenchmarkX": {nsPerOp: 100}}
	newB := map[string]sample{"BenchmarkX": {nsPerOp: 130}}
	var b strings.Builder
	failed, _ := compare(&b, oldB, newB, 0.15, 0, -1, 0)
	if !failed {
		t.Errorf("30%% slowdown not flagged:\n%s", b.String())
	}
}

func TestParseQbenchJSONWithP99(t *testing.T) {
	data := []byte(`{
  "experiments": [
    {"id": "E1", "wall_ns": 1000, "allocs": 5,
     "extra": {"enum.n1024_delay_p99_steps": 4, "enum.n1024_outputs": 7}},
    {"id": "E5", "wall_ns": 2000, "allocs": 9}
  ]
}`)
	got, err := parseBenchData("synthetic.json", data)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := got["E1"]; !ok || s.nsPerOp != 1000 {
		t.Errorf("E1 sample missing or wrong: %+v", got["E1"])
	}
	p, ok := got["E1/enum.n1024_delay_p99_steps"]
	if !ok || !p.hasP99 || p.p99Steps != 4 {
		t.Fatalf("p99 sample missing or wrong: %+v (ok=%v)", p, ok)
	}
	if _, ok := got["E1/enum.n1024_outputs"]; ok {
		t.Error("non-p99 extra key leaked into samples")
	}
}

func TestCompareP99Gate(t *testing.T) {
	oldB := map[string]sample{"E1/enum_delay_p99_steps": {p99Steps: 4, hasP99: true}}

	// Same p99: passes at zero tolerance.
	var b strings.Builder
	failed, _ := compare(&b, oldB, map[string]sample{
		"E1/enum_delay_p99_steps": {p99Steps: 4, hasP99: true},
	}, 0.15, 0, -1, 0)
	if failed {
		t.Errorf("unchanged p99 flagged at zero tolerance:\n%s", b.String())
	}

	// Any growth: fails at zero tolerance, even from a zero baseline.
	for _, c := range []struct{ oldP, newP float64 }{{4, 5}, {0, 1}} {
		var b strings.Builder
		failed, _ := compare(&b,
			map[string]sample{"E1/p99_delay_p99_steps": {p99Steps: c.oldP, hasP99: true}},
			map[string]sample{"E1/p99_delay_p99_steps": {p99Steps: c.newP, hasP99: true}},
			0.15, 0, -1, 0)
		if !failed {
			t.Errorf("p99 growth %v→%v not flagged:\n%s", c.oldP, c.newP, b.String())
		}
	}

	// Within tolerance: passes.
	var b2 strings.Builder
	failed, _ = compare(&b2, oldB, map[string]sample{
		"E1/enum_delay_p99_steps": {p99Steps: 5, hasP99: true},
	}, 0.15, 0, -1, 0.5)
	if failed {
		t.Errorf("p99 4→5 flagged despite -maxp99=0.5:\n%s", b2.String())
	}
}

func TestParseBenchTextMinReduction(t *testing.T) {
	data := []byte(`
goos: linux
BenchmarkLookup-8   1000000   120.0 ns/op   16 B/op   2 allocs/op
BenchmarkLookup-8   1000000   100.0 ns/op   16 B/op   1 allocs/op
PASS
`)
	got, err := parseBenchData("synthetic.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got["BenchmarkLookup"]
	if !ok {
		t.Fatalf("BenchmarkLookup missing: %v", got)
	}
	if s.nsPerOp != 100 || s.allocsPerOp != 1 || s.bytesPerOp != 16 || !s.hasBytes {
		t.Errorf("min reduction wrong: %+v", s)
	}
}

// TestCompareBytesGate: -maxbytes gates B/op by its fraction, stays off
// when negative, and a baseline under the 1 KB floor does not turn a few
// stray bytes into a large fraction.
func TestCompareBytesGate(t *testing.T) {
	bench := func(bytes float64) map[string]sample {
		return map[string]sample{"BenchmarkView": {nsPerOp: 100, allocsPerOp: 2, hasAllocs: true, bytesPerOp: bytes, hasBytes: true}}
	}
	for _, c := range []struct {
		oldB, newB, maxBytes float64
		fail                 bool
	}{
		{152, 49304, 0.05, true},      // a 2^11-row header copy comes back
		{152, 49304, -1, false},       // gate off
		{100000, 104000, 0.05, false}, // inside the tolerance
		{100000, 106000, 0.05, true},
		{0, 40, 0.05, false}, // 40 B over the 1 KB floor
	} {
		var b strings.Builder
		failed, _ := compare(&b, bench(c.oldB), bench(c.newB), 0.15, 0, c.maxBytes, 0)
		if failed != c.fail {
			t.Errorf("B/op %v→%v at -maxbytes %v: failed=%v, want %v\n%s", c.oldB, c.newB, c.maxBytes, failed, c.fail, b.String())
		}
	}
}
