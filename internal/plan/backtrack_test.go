package plan

import (
	"testing"

	"repro/internal/delay"
)

// TestBacktrackCountReadsDrainedMemo: a Count after a drained pass reads
// the pass's answer list instead of evaluating it again, and a Count
// before any pass leaves no answer list behind.
func TestBacktrackCountReadsDrainedMemo(t *testing.T) {
	db := readSetDB()
	p, err := Compile(parseCQ(t, "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)."))
	if err != nil {
		t.Fatal(err)
	}
	if p.CountEngine != EngineBacktrack {
		t.Fatalf("count engine %s, want %s", p.CountEngine, EngineBacktrack)
	}
	counted, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	n, err := counted.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := counted.r.(*backtrackRoute); r.done || r.rows != nil {
		t.Error("Count filled the answer memo")
	}

	drained, err := p.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := drained.Enumerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(delay.Collect(e)); int64(got) != n.Int64() {
		t.Fatalf("pass gave %d answers, Count %v", got, n)
	}
	// Cut the memo behind the route's back: a Count that evaluated again
	// would not see the cut.
	r := drained.r.(*backtrackRoute)
	r.rows = r.rows[:1]
	if m, err := drained.Count(nil); err != nil || m.Int64() != 1 {
		t.Errorf("Count after a drained pass: %v (%v), want the memo's 1", m, err)
	}
}
