package harness

import (
	"math"
	"sort"
)

// Rank is the 1-based nearest rank ⌈p·n⌉ of percentile p among n sorted
// samples (at least 1).
func Rank(p float64, n int) int {
	// The epsilon keeps products that are whole in exact arithmetic
	// (0.95·200) from rounding up to the next rank.
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Beyond is the number of samples strictly above the percentile's rank.
func Beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - Rank(p, n)
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is one outlier's latency, not a
// property of the distribution.
const minBeyond = 10

// Supported reports whether n samples carry percentile p.
func Supported(p float64, n int) bool { return Beyond(p, n) >= minBeyond }

// Percentile returns the nearest-rank percentile of vals (any order), or
// 0 when vals is empty.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[Rank(p, len(s))-1]
}

// Median returns the middle value of vals (the mean of the two middle
// values for an even count), or 0 when vals is empty.
func Median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Summary is a metric over the segments of a measured phase: the median
// of the per-segment values, their range, and the number of underlying
// samples (operations, not segments).
type Summary struct {
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// Summarize reduces per-segment values to a Summary.
func Summarize(perSegment []float64, samples int) Summary {
	if len(perSegment) == 0 {
		return Summary{}
	}
	lo, hi := perSegment[0], perSegment[0]
	for _, v := range perSegment[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return Summary{Median: Median(perSegment), Min: lo, Max: hi, Samples: samples}
}
