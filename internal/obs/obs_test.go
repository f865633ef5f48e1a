package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/delay"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 40, 41}, {1<<63 - 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		if c.bucket > 0 {
			if lo, hi := BucketLo(c.bucket), BucketHi(c.bucket); c.v < lo || c.v > hi {
				t.Errorf("value %d outside its bucket edges [%d, %d]", c.v, lo, hi)
			}
		}
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 15 || h.Max() != 5 {
		t.Fatalf("count/sum/max = %d/%d/%d, want 5/15/5", h.Count(), h.Sum(), h.Max())
	}
	if m := h.Mean(); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
	// Quantiles are bucket upper edges capped at the exact max: samples
	// {1,2,3,4,5} land in buckets [1,1] [2,3] [2,3] [4,7] [4,7].
	if p50 := h.Quantile(0.5); p50 != 3 {
		t.Errorf("p50 = %d, want 3 (upper edge of the [2,3] bucket)", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 5 {
		t.Errorf("p99 = %d, want 5 (bucket edge 7 capped at max)", p99)
	}
	if q := h.Quantile(1); q != 5 {
		t.Errorf("q=1 quantile = %d, want max 5", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %d, want 0", got)
	}
}

// TestHistogramConcurrent exercises the lock-free Observe path under -race:
// the totals must reflect every sample regardless of interleaving.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
	want := int64(workers*per) * int64(workers*per-1) / 2
	if h.Sum() != want {
		t.Errorf("sum = %d, want %d", h.Sum(), want)
	}
	if h.Max() != workers*per-1 {
		t.Errorf("max = %d, want %d", h.Max(), workers*per-1)
	}
}

func TestObserverSpansAndSnapshot(t *testing.T) {
	o := New()
	base := o.epoch
	o.ObserveSpan("semijoin-reduce", 0, 10, base.Add(5*time.Millisecond), base.Add(8*time.Millisecond))
	o.ObserveSpan("semijoin-reduce", 10, 20, base.Add(6*time.Millisecond), base.Add(9*time.Millisecond))
	o.ObserveSpan("tree-build", 0, 0, base, base.Add(1*time.Millisecond))
	o.ObserveDelay(3, 100)
	o.ObserveDelay(5, 200)

	spans := o.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Phase != "tree-build" {
		t.Errorf("spans not sorted by start: first is %q", spans[0].Phase)
	}

	tr := o.Snapshot("test")
	if tr.DelaySteps.Count != 2 || tr.DelaySteps.Max != 5 {
		t.Errorf("delay histogram: count=%d max=%d, want 2/5", tr.DelaySteps.Count, tr.DelaySteps.Max)
	}
	byPhase := map[string]PhaseSummary{}
	for _, p := range tr.Phases {
		byPhase[p.Phase] = p
	}
	sj := byPhase["semijoin-reduce"]
	if sj.Spans != 2 {
		t.Errorf("semijoin-reduce summary %+v, want 2 spans", sj)
	}
	if sj.WallNS != (6 * time.Millisecond).Nanoseconds() {
		t.Errorf("semijoin-reduce wall = %d ns, want 6ms", sj.WallNS)
	}
}

func TestNilObserverSafe(t *testing.T) {
	var o *Observer
	o.ObserveDelay(1, 1)
	o.ObserveSpan("x", 0, 0, time.Time{}, time.Time{})
	if s := o.Spans(); s != nil {
		t.Errorf("nil observer spans = %v, want nil", s)
	}
	if tr := o.Snapshot("nil"); tr.Label != "nil" {
		t.Errorf("nil observer snapshot label = %q", tr.Label)
	}
}

func TestWriteTraceRoundTrip(t *testing.T) {
	o := New()
	c := &delay.Counter{}
	c.SetSink(o)
	c.MarkStart()
	c.Tick(4)
	c.MarkOutput()
	sp := c.StartSpan("enumerate")
	c.Tick(2)
	sp.End()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Trace{o.Snapshot("rt")}); err != nil {
		t.Fatal(err)
	}
	var got []Trace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 1 || got[0].Label != "rt" {
		t.Fatalf("round trip lost the trace: %+v", got)
	}
	if got[0].DelaySteps.Count != 1 || got[0].DelaySteps.Max != 4 {
		t.Errorf("delay histogram after round trip: %+v", got[0].DelaySteps)
	}
	if len(got[0].Spans) != 1 || got[0].Spans[0].EndSteps-got[0].Spans[0].StartSteps != 2 {
		t.Errorf("span after round trip: %+v", got[0].Spans)
	}
}

// TestPublishReentrant: publishing a second observer under the same expvar
// name must replace the first, not panic like expvar.Publish.
func TestPublishReentrant(t *testing.T) {
	a, b := New(), New()
	a.ObserveDelay(1, 1)
	a.Publish("obs_test_reentrant")
	b.ObserveDelay(2, 2)
	b.ObserveDelay(3, 3)
	b.Publish("obs_test_reentrant") // must not panic
	pubMu.Lock()
	cur := pubObs["obs_test_reentrant"]
	pubMu.Unlock()
	if cur != b {
		t.Fatal("second Publish did not replace the observer")
	}
	if got := cur.Snapshot("x").DelaySteps.Count; got != 2 {
		t.Errorf("published snapshot count = %d, want 2 (observer b)", got)
	}
}

// TestDisabledPathAllocs pins the contract in the package comment: with no
// sink attached (the default for every engine call today), the observability
// hooks on the enumeration hot path cost zero allocations.
func TestDisabledPathAllocs(t *testing.T) {
	c := &delay.Counter{} // no sink
	var nilC *delay.Counter
	allocs := testing.AllocsPerRun(1000, func() {
		c.MarkStart()
		c.Tick(1)
		c.MarkOutput()
		sp := c.StartSpan("enumerate")
		c.Tick(1)
		sp.End()
		nilC.MarkOutput()
		nilC.StartSpan("x").End()
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestHistogramString keeps the log format stable enough to grep.
func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Observe(4)
	if s := h.String(); !strings.Contains(s, "n=1") || !strings.Contains(s, "max=4") {
		t.Errorf("String() = %q", s)
	}
}
