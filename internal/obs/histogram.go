// Package obs is the per-query observability layer: log-bucketed delay
// histograms over counted RAM steps and wall nanoseconds, phase spans, and
// trace/expvar/pprof export hooks.
//
// The paper's headline claims are *per-output delay* bounds (constant-delay
// enumeration, Theorems 3.2 and 4.6) and *phase-separated* costs (linear
// preprocessing vs. delay). Max-delay spot checks cannot distinguish a
// constant-delay enumerator from an amortized one whose worst gap happens
// to be small on one instance; the delay *distribution* can (see Segoufin's
// enumeration-complexity survey). An Observer attaches to a delay.Counter
// as its Sink; a nil Observer — or no sink at all — disables everything at
// the cost of one branch, and the disabled enumeration hot loop is pinned
// allocation-free by TestDisabledPathAllocs.
package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// numBuckets covers every int64: bucket 0 holds values ≤ 0 and bucket b
// (1 ≤ b ≤ 63) holds values in [2^(b-1), 2^b).
const numBuckets = 64

// Histogram is a fixed-size log₂-bucketed histogram of int64 samples.
// Observe is lock-free and goroutine-safe, so one histogram may be fed by
// concurrent runs; the bucket counts depend only on the multiset of
// observed values, never on interleaving.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64 // max of samples and 0 (delays are never negative)
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1 → 1, 2..3 → 2, 4..7 → 3, ...
}

// BucketLo returns the smallest value routed to bucket b (minInt64 for 0).
func BucketLo(b int) int64 {
	if b <= 0 {
		return 0 // reported lower edge; bucket 0 also absorbs negatives
	}
	return 1 << (b - 1)
}

// BucketHi returns the largest value routed to bucket b.
func BucketHi(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return 1<<63 - 1
	}
	return 1<<b - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the mean sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// upper edge of the first bucket whose cumulative count reaches q·Count,
// capped at the exact maximum. Counted-step delays are deterministic, so
// for them the bound is reproducible run to run.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if float64(target) < q*float64(n) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < numBuckets; b++ {
		cum += h.counts[b].Load()
		if cum >= target {
			hi := BucketHi(b)
			if m := h.max.Load(); m < hi {
				return m
			}
			return hi
		}
	}
	return h.max.Load()
}

// QuantileInterpolated estimates the q-quantile (0 < q ≤ 1) by linear
// interpolation within the winning log₂ bucket, assuming samples are
// uniformly spread across it. Unlike Quantile it is an estimate, not an
// upper bound — but it moves when the underlying distribution moves inside
// a bucket, which is what a latency regression gate needs: with 2× bucket
// edges, Quantile pins p50/p99 to the same edge across runs whose real
// latencies differ by up to 2×. The result is still capped at the exact
// observed maximum and floored at the bucket's lower edge.
func (h *Histogram) QuantileInterpolated(q float64) int64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if float64(target) < q*float64(n) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < numBuckets; b++ {
		c := h.counts[b].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum < target {
			continue
		}
		if b == 0 {
			return 0
		}
		lo, hi := BucketLo(b), BucketHi(b)
		if m := h.max.Load(); m < hi {
			hi = m
		}
		if hi <= lo {
			return lo
		}
		// rank within this bucket, in (0, 1]: rank 1 of c lands just above
		// lo, rank c lands on hi.
		frac := float64(target-(cum-c)) / float64(c)
		v := lo + int64(frac*float64(hi-lo))
		if v > hi {
			v = hi
		}
		return v
	}
	return h.max.Load()
}

// Bucket is one nonzero histogram bucket in a snapshot.
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON-ready dump of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	P50     int64    `json:"p50"`
	P90     int64    `json:"p90"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot dumps the histogram. Concurrent Observe calls may or may not be
// included; the result is internally consistent for a quiesced histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	for b := 0; b < numBuckets; b++ {
		if c := h.counts[b].Load(); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Lo: BucketLo(b), Hi: BucketHi(b), Count: c})
		}
	}
	return s
}

// String renders a compact one-line summary, for log output.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50≤%d p99≤%d max=%d",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
