package grid

import (
	"math"
	"math/rand"

	"repro/internal/geo"
)

// ErrorSample summarises how far an approximate pairwise sS matrix
// deviates from the exact Ptolemy similarity on a sample of place pairs.
type ErrorSample struct {
	// Pairs is the number of distinct pairs compared.
	Pairs int
	// MeanAbs and MaxAbs are the mean and maximum |exact − approx| over
	// the sampled pairs; sS values live in [0, 1], so both are absolute
	// error on that scale.
	MeanAbs float64
	MaxAbs  float64
}

// SampleApproxError estimates the error a grid approximation introduced
// by recomputing the exact sS (Eq. 7) for up to samples random pairs of
// pts and comparing against approx(i, j), the approximate sS of the pair
// (i < j): a matrix's At, or a score set's pair recompute. When the
// instance has no more than samples pairs the comparison is exhaustive;
// otherwise samples distinct pairs are drawn (without replacement —
// every sampled pair contributes exactly once). Sampling is deterministic in
// (len(pts), samples) so repeated runs over the same instance agree — the estimate feeds the /v1/explain introspection
// surface and the propserve_grid_err_sampled gauge, where jitter between
// identical requests would read as noise.
func SampleApproxError(q geo.Point, pts []geo.Point, approx func(i, j int) float64, samples int) ErrorSample {
	n := len(pts)
	if n < 2 || samples <= 0 || approx == nil {
		return ErrorSample{}
	}
	var es ErrorSample
	var sum float64
	observe := func(i, j int) {
		d := math.Abs(geo.PtolemySimilarity(q, pts[i], pts[j]) - approx(i, j))
		sum += d
		if d > es.MaxAbs {
			es.MaxAbs = d
		}
		es.Pairs++
	}
	if total := n * (n - 1) / 2; total <= samples {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				observe(i, j)
			}
		}
	} else {
		// Sample without replacement: a redrawn duplicate pair would count
		// twice in Pairs and skew MeanAbs toward whatever it happened to
		// hit — on small instances (total barely above samples) collisions
		// are common enough to matter. total > samples here, so enough
		// distinct pairs exist for the redraw loop to terminate.
		rng := rand.New(rand.NewSource(int64(n)*1_000_003 + int64(samples)))
		seen := make(map[int]struct{}, samples)
		for s := 0; s < samples; s++ {
			for {
				i := rng.Intn(n)
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				if i > j {
					i, j = j, i
				}
				key := i*n + j
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				observe(i, j)
				break
			}
		}
	}
	es.MeanAbs = sum / float64(es.Pairs)
	return es
}
