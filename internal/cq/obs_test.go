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
	}
}
