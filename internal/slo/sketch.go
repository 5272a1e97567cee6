// Package slo measures service-level objectives on the serving path: a
// lock-light log-bucketed latency sketch, rolling time windows built from
// rings of sub-window sketches, and per-class trackers that turn
// latency/outcome streams into quantiles, error-budget burn rates and
// remaining budget.
//
// The design trades exactness for a bounded, provable error at near-zero
// coordination cost. Observations land in geometrically spaced buckets
// (base 1.2, spanning 1µs–60s) via a handful of atomic adds; quantiles
// are estimated at read time by walking merged bucket counts and
// reporting the bucket's upper bound, so every estimate is within one
// multiplicative bucket (a factor of 1.2) of the true sorted quantile.
// Rolling windows are rings of sub-window sketches stamped with a coarse
// clock period: rotation is lazy (the first observer of a new period
// recycles the expired slot under a mutex taken once per sub-window
// duration), reads merge only the slots whose period is still inside the
// window, and expiry therefore needs no background goroutine at all.
package slo

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Bucket geometry: numBounds boundaries b[i] = 1µs · growth^i. Buckets
// are closed on the upper side, as Prometheus's `le` buckets are: bucket
// 0 holds observations ≤ 1µs, bucket i (1 ≤ i ≤ numBounds-1) the range
// (b[i-1], b[i]], and the last bucket everything > b[numBounds-1] ≈ 69s.
const (
	growth          = 1.2
	minTrackSeconds = 1e-6 // 1µs
	maxTrackSeconds = 60.0
	numBounds       = 100
	// NumBuckets is the total bucket count of every sketch (underflow +
	// log-spaced interior + overflow).
	NumBuckets = numBounds + 1
)

var bounds [numBounds]float64

func init() {
	bounds[0] = minTrackSeconds
	for i := 1; i < numBounds; i++ {
		bounds[i] = bounds[i-1] * growth
	}
	// The geometry must bracket the tracked span: the second-to-last
	// boundary below 60s, the last at or above it. Violations mean the
	// constants drifted apart — a programming error.
	if bounds[numBounds-2] >= maxTrackSeconds || bounds[numBounds-1] < maxTrackSeconds {
		panic("slo: bucket geometry does not span the tracked latency range")
	}
}

// bucketOf maps a latency in seconds onto its bucket index: the smallest
// i whose boundary is ≥ v, found by binary search (no float log, so
// boundary values bucket deterministically).
func bucketOf(v float64) int {
	return sort.Search(numBounds, func(j int) bool { return bounds[j] >= v })
}

// BucketBound returns boundary i (0 ≤ i < NumBuckets-1) in seconds: the
// inclusive upper end of bucket i, the exact value bucketOf compares
// against. Cumulative counts over buckets 0..i count the observations
// ≤ BucketBound(i), which is what a Prometheus `le` bucket holds.
func BucketBound(i int) float64 { return bounds[i] }

// BucketIndex returns the sketch bucket the duration falls into. Two
// estimates whose indices differ by at most one are "within one sketch
// bucket" of each other — the agreement unit used by the load-harness
// acceptance checks.
func BucketIndex(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	return bucketOf(d.Seconds())
}

// BucketUpper returns the upper boundary of bucket i (the value Quantile
// reports for observations landing there). The overflow bucket has no
// boundary; it reports the largest tracked boundary.
func BucketUpper(i int) time.Duration {
	switch {
	case i <= 0:
		return time.Duration(minTrackSeconds * 1e9)
	case i < numBounds:
		return time.Duration(bounds[i] * 1e9)
	default:
		return time.Duration(bounds[numBounds-1] * 1e9)
	}
}

// Sketch is a fixed-size log-bucketed latency histogram mutated with
// atomic operations only; the zero value is ready to use. One Observe
// costs a ~7-step binary search plus four atomic adds and (rarely) a
// compare-and-swap for the max.
type Sketch struct {
	counts [NumBuckets]atomic.Uint64
	total  atomic.Uint64
	sumNs  atomic.Uint64
	maxNs  atomic.Int64
}

// Observe records one latency. Negative durations clamp to zero.
func (s *Sketch) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.counts[bucketOf(d.Seconds())].Add(1)
	s.total.Add(1)
	s.sumNs.Add(uint64(d))
	for {
		m := s.maxNs.Load()
		if int64(d) <= m || s.maxNs.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.total.Load() }

// AddTo accumulates the sketch's counters into c, merging this sketch
// into a read-side snapshot. Concurrent Observes may or may not be
// included — each observation is read atomically, so c is always a sum
// of complete observations.
func (s *Sketch) AddTo(c *Counts) {
	for i := range s.counts {
		c.Buckets[i] += s.counts[i].Load()
	}
	c.Total += s.total.Load()
	c.SumNs += s.sumNs.Load()
	if m := s.maxNs.Load(); m > c.MaxNs {
		c.MaxNs = m
	}
}

// Counts returns the sketch's own counters as a snapshot.
func (s *Sketch) Counts() Counts {
	var c Counts
	s.AddTo(&c)
	return c
}

// reset zeroes every counter with atomic stores. An Observe racing the
// reset may lose exactly that one observation (or survive into the fresh
// sub-window); the error is bounded by one observation per rotation and
// the operation stays clean under the race detector.
func (s *Sketch) reset() {
	for i := range s.counts {
		s.counts[i].Store(0)
	}
	s.total.Store(0)
	s.sumNs.Store(0)
	s.maxNs.Store(0)
}

// Counts is a plain (non-atomic) bucket snapshot, mergeable across
// sub-windows and classes; quantiles are estimated on the merged value.
type Counts struct {
	Buckets [NumBuckets]uint64
	Total   uint64
	SumNs   uint64
	MaxNs   int64
}

// Quantile estimates the p-quantile (p in [0, 1]) of the recorded
// latencies: the upper boundary of the bucket holding the ⌈p·n⌉-th
// smallest observation. Because the true order statistic lies inside
// that bucket, the estimate exceeds it by at most one bucket width (a
// factor of growth = 1.2); observations ≤ 1µs report 1µs, and the
// overflow bucket reports the observed maximum. Zero observations
// estimate zero.
func (c *Counts) Quantile(p float64) time.Duration {
	i := c.QuantileBucket(p)
	switch {
	case i < 0:
		return 0
	case i == NumBuckets-1:
		return time.Duration(c.MaxNs)
	}
	return BucketUpper(i)
}

// QuantileBucket returns the index of the bucket holding the ⌈p·n⌉-th
// smallest observation, or -1 with no observations. It is the join key
// for exemplars: a trace noted at BucketIndex(d) of an observation lands
// in exactly this index.
func (c *Counts) QuantileBucket(p float64) int {
	if c.Total == 0 {
		return -1
	}
	if math.IsNaN(p) || p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(c.Total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range c.Buckets {
		cum += n
		if cum >= rank {
			return i
		}
	}
	return NumBuckets - 1 // unreachable: cum sums to Total
}

// Mean returns the arithmetic mean of the recorded latencies (exact —
// the sum is tracked outside the buckets).
func (c *Counts) Mean() time.Duration {
	if c.Total == 0 {
		return 0
	}
	return time.Duration(c.SumNs / c.Total)
}

// Max returns the largest recorded latency.
func (c *Counts) Max() time.Duration { return time.Duration(c.MaxNs) }
