package delay

import (
	"sync"
	"testing"

	"repro/internal/database"
)

func tuples(vals ...int64) []database.Tuple {
	out := make([]database.Tuple, len(vals))
	for i, v := range vals {
		out[i] = database.Tuple{database.Value(v)}
	}
	return out
}

func TestEmptySingletonSlice(t *testing.T) {
	if got := Collect(Empty()); len(got) != 0 {
		t.Errorf("Empty yielded %v", got)
	}
	got := Collect(Singleton(database.Tuple{7}))
	if len(got) != 1 || got[0][0] != 7 {
		t.Errorf("Singleton: %v", got)
	}
	// Singleton is exhausted after one.
	s := Singleton(database.Tuple{})
	s.Next()
	if _, ok := s.Next(); ok {
		t.Errorf("Singleton yielded twice")
	}
	if got := Collect(Slice(tuples(1, 2, 3))); len(got) != 3 || got[2][0] != 3 {
		t.Errorf("Slice: %v", got)
	}
}

func TestCollectClones(t *testing.T) {
	// Collect must clone: an enumerator may reuse its output buffer.
	buf := database.Tuple{0}
	i := 0
	e := Func(func() (database.Tuple, bool) {
		if i >= 3 {
			return nil, false
		}
		i++
		buf[0] = database.Value(i)
		return buf, true
	})
	got := Collect(e)
	if got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 {
		t.Errorf("Collect did not clone: %v", got)
	}
}

func TestCounter(t *testing.T) {
	var nilc *Counter
	nilc.Tick(5) // must not panic
	if nilc.Steps() != 0 {
		t.Errorf("nil counter steps")
	}
	c := &Counter{}
	c.Tick(3)
	c.Tick(4)
	if c.Steps() != 7 {
		t.Errorf("steps = %d", c.Steps())
	}
}

func TestMeasure(t *testing.T) {
	c := &Counter{}
	st, out := Measure(c, func() Enumerator {
		c.Tick(10) // preprocessing work
		i := 0
		return Func(func() (database.Tuple, bool) {
			if i >= 4 {
				return nil, false
			}
			i++
			c.Tick(int64(i)) // increasing delays: 1,2,3,4
			return database.Tuple{database.Value(i)}, true
		})
	})
	if st.PreprocessSteps != 10 {
		t.Errorf("preprocess steps = %d", st.PreprocessSteps)
	}
	if st.Outputs != 4 || len(out) != 4 {
		t.Errorf("outputs = %d", st.Outputs)
	}
	if st.MaxDelaySteps != 4 {
		t.Errorf("max delay = %d, want 4", st.MaxDelaySteps)
	}
	if st.TotalSteps != 10 {
		t.Errorf("total steps = %d, want 10", st.TotalSteps)
	}
}

func TestDedup(t *testing.T) {
	e := Dedup(Slice(tuples(1, 2, 1, 3, 2, 1)), nil)
	got := Collect(e)
	if len(got) != 3 {
		t.Fatalf("dedup: %v", got)
	}
	if got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 {
		t.Errorf("dedup order: %v", got)
	}
}

func TestConcat(t *testing.T) {
	e := Concat(Slice(tuples(1, 2)), Empty(), Slice(tuples(3)))
	got := Collect(e)
	if len(got) != 3 || got[2][0] != 3 {
		t.Errorf("concat: %v", got)
	}
	if got := Collect(Concat()); len(got) != 0 {
		t.Errorf("empty concat: %v", got)
	}
}

// Regression: Measure must snapshot the counter at entry. A previously
// used counter would otherwise leak its old total into PreprocessSteps.
func TestMeasureReusedCounter(t *testing.T) {
	c := &Counter{}
	build := func() Enumerator {
		c.Tick(10)
		i := 0
		return Func(func() (database.Tuple, bool) {
			if i >= 4 {
				return nil, false
			}
			i++
			c.Tick(int64(i))
			return database.Tuple{database.Value(i)}, true
		})
	}
	first, _ := Measure(c, build)
	second, _ := Measure(c, build) // same counter, now holding 21 steps
	for name, pair := range map[string][2]int64{
		"PreprocessSteps": {first.PreprocessSteps, second.PreprocessSteps},
		"MaxDelaySteps":   {first.MaxDelaySteps, second.MaxDelaySteps},
		"TotalSteps":      {first.TotalSteps, second.TotalSteps},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s differs across reuse: first %d, second %d", name, pair[0], pair[1])
		}
	}
	if second.PreprocessSteps != 10 {
		t.Errorf("second PreprocessSteps = %d, want 10", second.PreprocessSteps)
	}
	if c.Steps() != 40 {
		t.Errorf("counter total = %d, want 40", c.Steps())
	}
}

// The counter must be safe to share across concurrent runs (run with
// -race to see the point of this test).
func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Tick(1)
			}
		}()
	}
	wg.Wait()
	if c.Steps() != 8000 {
		t.Errorf("steps = %d, want 8000", c.Steps())
	}
}

func TestDedupEdgeCases(t *testing.T) {
	// Empty inner enumerator.
	if got := Collect(Dedup(Empty(), nil)); len(got) != 0 {
		t.Errorf("dedup of empty: %v", got)
	}
	// Duplicate-only stream collapses to one answer.
	got := Collect(Dedup(Slice(tuples(5, 5, 5, 5)), nil))
	if len(got) != 1 || got[0][0] != 5 {
		t.Errorf("dedup of duplicate-only stream: %v", got)
	}
	// A counting dedup ticks once per consumed input tuple.
	c := &Counter{}
	Collect(Dedup(Slice(tuples(1, 1, 2)), c))
	if c.Steps() != 3 {
		t.Errorf("dedup steps = %d, want 3", c.Steps())
	}
	// Tuples of different arity with equal prefixes stay distinct.
	in := []database.Tuple{{1}, {1, 0}, {1}}
	got = Collect(Dedup(Slice(in), nil))
	if len(got) != 2 {
		t.Errorf("dedup arity separation: %v", got)
	}
}

func TestConcatEdgeCases(t *testing.T) {
	// All-empty chain.
	if got := Collect(Concat(Empty(), Empty(), Empty())); len(got) != 0 {
		t.Errorf("concat of empties: %v", got)
	}
	// Exhausted concat stays exhausted.
	e := Concat(Slice(tuples(1)))
	Collect(e)
	if _, ok := e.Next(); ok {
		t.Error("concat yielded after exhaustion")
	}
}

func TestSingletonEdgeCases(t *testing.T) {
	// The empty tuple (Boolean true) is a valid singleton answer.
	e := Singleton(database.Tuple{})
	got, ok := e.Next()
	if !ok || len(got) != 0 {
		t.Errorf("singleton empty tuple: %v %v", got, ok)
	}
	if _, ok := e.Next(); ok {
		t.Error("singleton yielded twice")
	}
	// A nil tuple round-trips (callers treat it as the empty answer).
	e = Singleton(nil)
	if _, ok := e.Next(); !ok {
		t.Error("singleton of nil tuple yielded nothing")
	}
}
