package repro

// Golden observability test: the delay histogram of internal/obs, attached
// to E1's enumerator, must certify the constant-delay bound of Theorem 3.2
// in counted RAM steps — not just the max-delay spot value that
// delay.Stats already reports, but the whole distribution.

import (
	"fmt"
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// observedEnum builds the registry's instance of experiment id at size n
// and measures its enumerating op under a counter observed by o — the
// instance and query are the ones qbench tabulates, not a copy.
func observedEnum(t *testing.T, id, op string, n int, o *obs.Observer) (delay.Stats, []database.Tuple) {
	t.Helper()
	exps, err := experiments.Select(experiments.All, id)
	if err != nil {
		t.Fatal(err)
	}
	ops, _, err := exps[0].Tables[0].Setup(&experiments.Run{}).Build(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, candidate := range ops {
		if candidate.Name == op {
			c := &delay.Counter{}
			c.SetSink(o)
			return delay.Measure(c, func() delay.Enumerator {
				e, err := candidate.Enum(c)
				if err != nil {
					t.Fatal(err)
				}
				return e
			})
		}
	}
	t.Fatalf("%s has no op %q", id, op)
	return delay.Stats{}, nil
}

// e1MaxDelaySteps is the golden constant-delay bound for E1's enumerator on
// the cycle-graph instance: the bounded-degree enumeration of Theorem 3.2
// spends at most this many counted steps between consecutive emissions,
// independent of n. The value is pinned (not just "O(1)") so that any
// engine change that grows the per-output work trips this test the same
// way cmd/benchgate's p99 gate trips in CI.
const e1MaxDelaySteps = 5

func TestGoldenE1DelayHistogram(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		o := obs.New()
		st, answers := observedEnum(t, "E1", "Enumerate", n, o)
		if len(answers) == 0 {
			t.Fatalf("n=%d: E1 instance produced no answers", n)
		}

		// The histogram observes every emission gap: one per answer plus the
		// final output-to-exhaustion gap.
		if got, want := o.DelaySteps.Count(), int64(st.Outputs+1); got != want {
			t.Errorf("n=%d: histogram observed %d gaps, want %d (outputs+exhaustion)", n, got, want)
		}
		// The histogram's max is the same quantity Stats maximizes over.
		if o.DelaySteps.Max() != st.MaxDelaySteps {
			t.Errorf("n=%d: histogram max %d != Stats.MaxDelaySteps %d",
				n, o.DelaySteps.Max(), st.MaxDelaySteps)
		}
		// The golden bound, on the whole distribution: p100, not a spot check.
		if got := o.DelaySteps.Max(); got > e1MaxDelaySteps {
			t.Errorf("n=%d: max enumeration delay %d counted steps > golden bound %d",
				n, got, e1MaxDelaySteps)
		}
		if p99 := o.DelaySteps.Quantile(0.99); p99 > e1MaxDelaySteps {
			t.Errorf("n=%d: p99 delay %d counted steps > golden bound %d", n, p99, e1MaxDelaySteps)
		}
	}
}

// TestGoldenE1DelayIndependentOfN pins constancy itself: the worst counted
// delay must not grow with the instance, which is the difference between
// constant delay and "small on the one size we looked at".
func TestGoldenE1DelayIndependentOfN(t *testing.T) {
	maxAt := func(n int) int64 {
		o := obs.New()
		observedEnum(t, "E1", "Enumerate", n, o)
		return o.DelaySteps.Max()
	}
	small, large := maxAt(1<<8), maxAt(1<<15)
	if large > small {
		t.Errorf("max delay grew with n: %d steps at n=2^8, %d at n=2^15", small, large)
	}
}

// TestE5TraceSnapshotPhases: the trace emitted for a CQ enumeration names
// the pipeline phases of the paper (preprocessing split into tree building
// and semijoin reduction, then enumeration), so a reader of `qbench -trace`
// output can attribute wall time to them.
func TestE5TraceSnapshotPhases(t *testing.T) {
	o := obs.New()
	observedEnum(t, "E5", "ConstantDelay", 1<<10, o)
	tr := o.Snapshot("E5")
	got := map[string]bool{}
	for _, ph := range tr.Phases {
		got[ph.Phase] = true
	}
	for _, want := range []string{"tree-build", "semijoin-reduce", "enumerate"} {
		if !got[want] {
			t.Errorf("trace is missing phase %q; phases: %v", want, fmt.Sprint(tr.Phases))
		}
	}
	if tr.DelaySteps.Count == 0 {
		t.Error("trace has an empty delay histogram")
	}
}
