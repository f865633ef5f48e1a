package experiments

import (
	"fmt"
	"strings"
)

// All is the registry, in the order qbench prints it.
var All = []*Experiment{
	&e1, &e2, &e3, &e4, &e5, &e6, &e7, &e8, &e9, &e10, &e11, &e12, &e13, &e14,
	&e15, &e16, &e17, &e19, &e20, &e21, &e22, &e23, &e24,
}

// Select resolves a comma-separated list of experiment IDs (any case)
// against a registry, in registry order; the empty list selects all. An
// unknown ID is an error naming the valid ones — a typo used to silently
// run nothing at all, which reads as "everything passed" in CI logs.
func Select(registry []*Experiment, ids string) ([]*Experiment, error) {
	wanted := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			wanted[id] = true
		}
	}
	var out []*Experiment
	var valid []string
	all := len(wanted) == 0
	for _, e := range registry {
		valid = append(valid, e.ID)
		if all || wanted[e.ID] {
			out = append(out, e)
			delete(wanted, e.ID)
		}
	}
	for id := range wanted {
		return nil, fmt.Errorf("unknown experiment %q; valid ids: %s", id, strings.Join(valid, ", "))
	}
	return out, nil
}

// Benches returns the tables whose ops are the sub-benchmarks of
// Benchmark<name>, in declaration order.
func Benches(name string) []*Table {
	var out []*Table
	for _, e := range All {
		for i := range e.Tables {
			if e.Tables[i].Bench == name {
				out = append(out, &e.Tables[i])
			}
		}
	}
	return out
}
