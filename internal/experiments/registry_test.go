package experiments

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestEveryExperimentHoldsItsInvariants runs the whole registry the way
// `qbench -quick` does, at each table's smallest quick size, and fails on
// any invariant error (E20 stays on the delta path, E22 tuple-for-tuple
// identity, E24 step identity across backings, …).
func TestEveryExperimentHoldsItsInvariants(t *testing.T) {
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			small := *e
			small.Tables = append([]Table(nil), e.Tables...)
			for i := range small.Tables {
				if q := small.Tables[i].Sizes[Quick]; len(q) > 1 {
					small.Tables[i].Sizes[Quick] = q[:1]
				}
			}
			var out strings.Builder
			r := &Run{Mode: Quick, Repeat: 2, Observe: true, Out: &out}
			if err := small.Run(r); err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Error("printed nothing")
			}
			for _, l := range e.Shape {
				if !strings.Contains(out.String(), l) {
					t.Errorf("footer line %q not printed", l)
				}
			}
		})
	}
}

func TestRegistryIDsUniqueAndSelectable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		got, err := Select(All, " "+strings.ToLower(e.ID)+" ")
		if err != nil || len(got) != 1 || got[0] != e {
			t.Errorf("Select(%q) = %v, %v; want exactly %s", e.ID, got, err, e.ID)
		}
	}
	if all, err := Select(All, ""); err != nil || len(all) != len(All) {
		t.Errorf("Select(\"\") = %d experiments, %v; want all %d", len(all), err, len(All))
	}
	if two, err := Select(All, "E19,E5"); err != nil || len(two) != 2 || two[0].ID != "E5" {
		t.Errorf("Select(E19,E5) = %v, %v; want E5 then E19", two, err)
	}
	if _, err := Select(All, "E5,E99"); err == nil || !strings.Contains(err.Error(), "E99") {
		t.Errorf("Select(E5,E99) error = %v; want one naming E99", err)
	}
}

// TestBenchTablesAreRunnable: every table go test -bench drives has sizes,
// and a table qbench prints has a Row for them.
func TestBenchTablesAreRunnable(t *testing.T) {
	for _, e := range All {
		for i, tab := range e.Tables {
			if tab.Bench != "" && len(tab.Sizes[Bench]) == 0 {
				t.Errorf("%s table %d: Benchmark%s has no bench sizes", e.ID, i, tab.Bench)
			}
			if tab.Note == nil && len(tab.Sizes[Full]) != 0 && len(tab.Sizes[Quick]) == 0 {
				t.Errorf("%s table %d: full sizes but no quick sizes", e.ID, i)
			}
		}
	}
}

// TestEveryExperimentIsDocumented keeps the indexes from falling behind the
// registry: each ID needs a row in DESIGN.md §4 and a section in
// EXPERIMENTS.md.
func TestEveryExperimentIsDocumented(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	design, results := read("../../DESIGN.md"), read("../../EXPERIMENTS.md")
	start := strings.Index(design, "## 4. Per-experiment index")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4 per-experiment index")
	}
	index := design[start:]
	if end := strings.Index(index, "\n## 5."); end >= 0 {
		index = index[:end]
	}
	for _, e := range All {
		if !regexp.MustCompile(`(?m)^\| ` + e.ID + ` \|`).MatchString(index) {
			t.Errorf("DESIGN.md §4 has no row for %s", e.ID)
		}
		if !regexp.MustCompile(`(?m)^## ` + e.ID + `\b`).MatchString(results) {
			t.Errorf("EXPERIMENTS.md has no \"## %s\" section", e.ID)
		}
	}
}

// TestFailedInvariantIsReturned: a violated invariant comes back as an
// error naming the experiment and the size, after the rows before it
// printed and with what was recorded kept — never a process exit.
func TestFailedInvariantIsReturned(t *testing.T) {
	broken := errors.New("steps differ")
	e := Experiment{ID: "EX", Tables: []Table{{
		Param: "n", Cols: []string{"n:4"}, Sizes: sizes(nil, []int{1, 2}, nil),
		Setup: func(r *Run) Sweep {
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				return []Op{run("op", func() error { return nil })}, func([]Measured) ([]any, error) {
					r.Record(fmt.Sprint("seen_", n), true)
					if n == 2 {
						return nil, broken
					}
					return []any{n}, nil
				}, nil
			}}
		},
	}}, Shape: []string{"shape: unreachable"}}
	var out strings.Builder
	r := &Run{Mode: Quick, Out: &out}
	err := e.Run(r)
	if !errors.Is(err, broken) || !strings.Contains(err.Error(), "EX") || !strings.Contains(err.Error(), "n=2") {
		t.Fatalf("Run error = %v; want the invariant error naming EX and n=2", err)
	}
	if !strings.Contains(out.String(), "1") || strings.Contains(out.String(), "shape:") {
		t.Errorf("output %q: want the first row and no footer", out.String())
	}
	if r.Extra["seen_1"] != true || r.Extra["seen_2"] != true {
		t.Errorf("extras %v: want both sizes recorded", r.Extra)
	}
}

func TestColumnFormat(t *testing.T) {
	for _, tc := range []struct {
		spec string
		v    any
		want string
	}{
		{"n:6", 42, "42    "},
		{"ratio:8.2", 1.0 / 3, "0.33    "},
		{"time:8", 15340 * time.Nanosecond, "15µs    "},
		{"time:8", 4350 * time.Nanosecond, "4.35µs  "},
		{"enum: answers, maxΔ:4", "x", "x   "},
	} {
		if got := parseColumn(tc.spec).format(tc.v); got != tc.want {
			t.Errorf("column %q formats %v as %q, want %q", tc.spec, tc.v, got, tc.want)
		}
	}
}
