package slo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBucketGeometry(t *testing.T) {
	if got := BucketIndex(0); got != 0 {
		t.Errorf("BucketIndex(0) = %d, want 0", got)
	}
	if got := BucketIndex(500 * time.Nanosecond); got != 0 {
		t.Errorf("BucketIndex(500ns) = %d, want underflow bucket 0", got)
	}
	if got := BucketIndex(10 * time.Minute); got != NumBuckets-1 {
		t.Errorf("BucketIndex(10m) = %d, want overflow bucket %d", got, NumBuckets-1)
	}
	// Boundaries are strictly increasing, and each boundary value lands in
	// the bucket it closes (buckets are closed above: bucket i-1 ends at
	// b[i-1]) or a neighbour of it.
	for i := 1; i < numBounds; i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not increasing at %d: %g <= %g", i, bounds[i], bounds[i-1])
		}
		// The seconds→Duration conversion truncates to whole nanoseconds
		// and the comparison back in seconds can move the probe by one ULP,
		// so it may land in bucket i-1, which the boundary closes, or in
		// the next; the check accepts i-1 through i+1.
		d := time.Duration(bounds[i-1] * 1e9)
		if got := BucketIndex(d); got < i-1 || got > i+1 {
			t.Errorf("BucketIndex(bound %d = %v) = %d, want within one of %d", i-1, d, got, i)
		}
	}
	// A latency and its 1.21x multiple can never share a bucket; a 1.19x
	// multiple may. This is the resolution the base-1.2 geometry promises.
	for _, base := range []time.Duration{2 * time.Microsecond, time.Millisecond, 100 * time.Millisecond, 5 * time.Second} {
		lo, hi := BucketIndex(base), BucketIndex(time.Duration(float64(base)*1.21))
		if lo == hi {
			t.Errorf("%v and 1.21x share bucket %d", base, lo)
		}
	}
}

// quantileAgrees checks the one-bucket error bound: the sketch estimate
// and the exact sorted quantile must land in the same or adjacent
// buckets for every probed p.
func quantileAgrees(t *testing.T, name string, samples []time.Duration) {
	t.Helper()
	var s Sketch
	for _, d := range samples {
		s.Observe(d)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	c := s.Counts()
	if c.Total != uint64(len(samples)) {
		t.Fatalf("%s: count = %d, want %d", name, c.Total, len(samples))
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0} {
		rank := int(math.Ceil(p * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		exact := sorted[rank-1]
		est := c.Quantile(p)
		if diff := BucketIndex(est) - BucketIndex(exact); diff < -1 || diff > 1 {
			t.Errorf("%s: p=%g estimate %v (bucket %d) vs exact %v (bucket %d): off by %d buckets",
				name, p, est, BucketIndex(est), exact, BucketIndex(exact), diff)
		}
		if exact > est {
			// The estimate is a bucket upper bound, so it can only be below
			// the exact order statistic when both share the overflow bucket.
			if BucketIndex(exact) != NumBuckets-1 {
				t.Errorf("%s: p=%g estimate %v below exact %v", name, p, est, exact)
			}
		}
	}
}

func TestQuantileUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 20000)
	for i := range samples {
		samples[i] = time.Duration(rng.Int63n(int64(time.Second-time.Microsecond))) + time.Microsecond
	}
	quantileAgrees(t, "uniform", samples)
}

func TestQuantileZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := rand.NewZipf(rng, 1.3, 1, 1<<20)
	samples := make([]time.Duration, 20000)
	for i := range samples {
		// Heavy-tailed latencies from ~1µs up to ~1s.
		samples[i] = time.Duration(z.Uint64())*time.Microsecond + time.Microsecond
	}
	quantileAgrees(t, "zipf", samples)
}

func TestQuantileBimodal(t *testing.T) {
	// The serving path's adversarial shape: a huge fast mode (cache hits
	// ~2µs) and a small slow mode (misses ~5ms), over three orders of
	// magnitude apart. Quantiles that fall between the modes must not be
	// smeared: p50 sits in the fast mode, p99 in the slow one when the
	// slow mode holds 2% of the mass.
	rng := rand.New(rand.NewSource(3))
	samples := make([]time.Duration, 50000)
	for i := range samples {
		if rng.Float64() < 0.98 {
			samples[i] = 2*time.Microsecond + time.Duration(rng.Int63n(int64(time.Microsecond)))
		} else {
			samples[i] = 5*time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Millisecond)))
		}
	}
	quantileAgrees(t, "bimodal", samples)

	var s Sketch
	for _, d := range samples {
		s.Observe(d)
	}
	c := s.Counts()
	if p50 := c.Quantile(0.5); p50 > 10*time.Microsecond {
		t.Errorf("bimodal p50 = %v, want fast mode (≤10µs)", p50)
	}
	if p99 := c.Quantile(0.999); p99 < time.Millisecond {
		t.Errorf("bimodal p99.9 = %v, want slow mode (≥1ms)", p99)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var c Counts
	if q := c.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	var s Sketch
	s.Observe(90 * time.Second) // overflow bucket
	s.Observe(100 * time.Second)
	c = s.Counts()
	if q := c.Quantile(1.0); q != 100*time.Second {
		t.Errorf("overflow quantile = %v, want observed max 100s", q)
	}
	if m := c.Max(); m != 100*time.Second {
		t.Errorf("max = %v", m)
	}
	s.Observe(-5 * time.Second) // clamps to 0
	if got := s.Counts().Buckets[0]; got != 1 {
		t.Errorf("negative observation: underflow bucket = %d, want 1", got)
	}
}

func TestSketchMean(t *testing.T) {
	var s Sketch
	s.Observe(time.Millisecond)
	s.Observe(3 * time.Millisecond)
	c := s.Counts()
	if m := c.Mean(); m != 2*time.Millisecond {
		t.Errorf("mean = %v, want 2ms", m)
	}
}
