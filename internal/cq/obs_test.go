package cq

import (
	"testing"

	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/qgen"
)

// obsSeeds returns a slice of the differential sweep: the observability
// contracts below re-run whole engine pipelines per seed with a sink
// attached, so a subset keeps the suite fast while still crossing many
// query shapes (acyclic/cyclic, free-connex or not, empty results).
func obsSeeds() []int64 {
	all := diffSeeds()
	if len(all) > 60 {
		all = all[:60]
	}
	return all
}

// TestStepIdentityWithObserver pins the tentpole contract: attaching an
// observability sink must not change a single counted RAM step, on any
// engine, on any instance.
func TestStepIdentityWithObserver(t *testing.T) {
	engines := []struct {
		name string
		run  func(db *database.Database, q *logic.CQ, c *delay.Counter) error
	}{
		{"Eval", func(db *database.Database, q *logic.CQ, c *delay.Counter) error {
			_, err := Eval(db, q, c)
			return err
		}},
		{"Decide", func(db *database.Database, q *logic.CQ, c *delay.Counter) error {
			_, err := Decide(db, q, c)
			return err
		}},
		// ParEval is covered separately below: on empty joins its reducer's
		// early-exit makes the amount of skipped work timing-dependent, so
		// step identity is only contractual on nonempty results.
		{"EnumerateConstantDelay", func(db *database.Database, q *logic.CQ, c *delay.Counter) error {
			e, err := EnumerateConstantDelay(db, q, c)
			if err != nil {
				return err
			}
			_, _ = delay.Measure(c, func() delay.Enumerator { return e })
			return nil
		}},
		{"EnumerateLinearDelay", func(db *database.Database, q *logic.CQ, c *delay.Counter) error {
			e, err := EnumerateLinearDelay(db, q, c)
			if err != nil {
				return err
			}
			_, _ = delay.Measure(c, func() delay.Enumerator { return e })
			return nil
		}},
	}
	for _, seed := range obsSeeds() {
		q, db := qgen.Instance(seed)
		for _, en := range engines {
			bare := &delay.Counter{}
			errBare := en.run(db, q, bare)

			observed := &delay.Counter{}
			observed.SetSink(obs.New())
			errObs := en.run(db, q, observed)

			if (errBare == nil) != (errObs == nil) {
				failInstance(t, seed, q, db, "%s: error changed with observer: %v vs %v", en.name, errBare, errObs)
			}
			if bare.Steps() != observed.Steps() {
				failInstance(t, seed, q, db, "%s: steps %d without observer != %d with observer",
					en.name, bare.Steps(), observed.Steps())
			}
		}

		// ParEval: step identity with/without observer, on nonempty results.
		bare := &delay.Counter{}
		ans, errBare := ParEval(db, q, 4, bare)
		observed := &delay.Counter{}
		observed.SetSink(obs.New())
		ansObs, errObs := ParEval(db, q, 4, observed)
		if (errBare == nil) != (errObs == nil) {
			failInstance(t, seed, q, db, "ParEval: error changed with observer: %v vs %v", errBare, errObs)
		}
		if errBare == nil && len(ans) > 0 {
			if len(ansObs) != len(ans) {
				failInstance(t, seed, q, db, "ParEval: answer count changed with observer: %d vs %d", len(ans), len(ansObs))
			}
			if bare.Steps() != observed.Steps() {
				failInstance(t, seed, q, db, "ParEval: steps %d without observer != %d with observer",
					bare.Steps(), observed.Steps())
			}
		}
	}
}

// TestParEvalObserverDeterminism: under the race detector, ParEval with an
// attached observer must be race-free, and the parts of the trace that the
// paper's bounds speak about — the counted steps, delay histograms, and the
// per-phase span counts — must be identical run to run on instances with a
// nonempty result. (Per-span step deltas are NOT deterministic in a
// parallel engine: concurrent workers tick the shared counter, and Span
// documents that. And when the join is empty, the reducer's early-exit flag
// races benignly with sibling subtrees, so skipped work varies — the same
// carve-out TestDifferentialStepCounts makes.)
func TestParEvalObserverDeterminism(t *testing.T) {
	for _, seed := range obsSeeds()[:20] {
		q, db := qgen.Instance(seed)
		type shape struct {
			answers     int
			steps       int64
			delayCount  int64
			delaySum    int64
			delayMax    int64
			phaseCounts map[string]int
		}
		run := func() (shape, error) {
			o := obs.New()
			c := &delay.Counter{}
			c.SetSink(o)
			ans, err := ParEval(db, q, 4, c)
			if err != nil {
				return shape{}, err
			}
			s := shape{
				answers:     len(ans),
				steps:       c.Steps(),
				delayCount:  o.DelaySteps.Count(),
				delaySum:    o.DelaySteps.Sum(),
				delayMax:    o.DelaySteps.Max(),
				phaseCounts: map[string]int{},
			}
			for _, sp := range o.Spans() {
				s.phaseCounts[sp.Phase]++
			}
			return s, nil
		}
		first, err := run()
		if err != nil {
			failInstance(t, seed, q, db, "ParEval: %v", err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := run()
			if err != nil {
				failInstance(t, seed, q, db, "ParEval rep %d: %v", rep, err)
			}
			if again.answers != first.answers {
				failInstance(t, seed, q, db, "answer count drifted: %d vs %d", first.answers, again.answers)
			}
			if first.answers == 0 {
				continue // empty join: early-exit makes skipped work timing-dependent
			}
			if again.steps != first.steps {
				failInstance(t, seed, q, db, "steps drifted across runs: %d vs %d", first.steps, again.steps)
			}
			if again.delayCount != first.delayCount || again.delaySum != first.delaySum || again.delayMax != first.delayMax {
				failInstance(t, seed, q, db, "delay histogram drifted: {n=%d sum=%d max=%d} vs {n=%d sum=%d max=%d}",
					first.delayCount, first.delaySum, first.delayMax,
					again.delayCount, again.delaySum, again.delayMax)
			}
			for ph, n := range first.phaseCounts {
				if again.phaseCounts[ph] != n {
					failInstance(t, seed, q, db, "phase %q span count drifted: %d vs %d", ph, n, again.phaseCounts[ph])
				}
			}
		}
	}
}
