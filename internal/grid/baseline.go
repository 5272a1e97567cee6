// Package grid implements the spatial-proportionality computation of
// Section 7 of the paper: the exact (baseline) all-pairs Ptolemy similarity,
// and the squared- and radial-grid approximations of Algorithm 2 with their
// precomputed similarity tables (valid for every query location and grid
// size by the scale-free property of Theorem 7.1).
package grid

import (
	"context"

	"repro/internal/geo"
	"repro/internal/pairs"
)

// AllPairsSpatial computes the exact Ptolemy spatial similarity
// sS(p_i, p_j) w.r.t. q for every pair of points — the baseline algorithm,
// costing ~20 arithmetic operations per pair.
func AllPairsSpatial(q geo.Point, pts []geo.Point) *pairs.Matrix {
	m, _ := AllPairsSpatialCtx(context.Background(), q, pts)
	return m
}

// AllPairsSpatialCtx is AllPairsSpatial filled through pairs.FillRows,
// with its cancellation checkpoints. On cancellation the partial matrix is
// discarded and ctx.Err() returned.
func AllPairsSpatialCtx(ctx context.Context, q geo.Point, pts []geo.Point) (*pairs.Matrix, error) {
	return pairs.FillRows(ctx, len(pts), ExactRows(q, pts))
}

// ExactRows returns the row function of AllPairsSpatial(q, pts): rows(i,
// row) writes sS(p_i, p_j) for j = i+1 … n−1 into row[j−i−1]. It keeps no
// state beyond the per-point distances to q.
func ExactRows(q geo.Point, pts []geo.Point) func(i int, row []float64) {
	p := NewExactPairs(q, pts)
	return func(i int, row []float64) {
		for t := range row {
			row[t] = p.At(i, i+1+t)
		}
	}
}

// ExactPairs is the O(K) state from which any entry of
// AllPairsSpatial(q, pts) is recomputed bit for bit: the points and their
// distances to q. Hoisting the distances is the natural implementation in
// Go and only strengthens the baseline the grids are compared against.
type ExactPairs struct {
	pts []geo.Point
	dq  []float64
}

// NewExactPairs returns the pair state of AllPairsSpatial(q, pts).
func NewExactPairs(q geo.Point, pts []geo.Point) ExactPairs {
	dq := make([]float64, len(pts))
	for i, p := range pts {
		dq[i] = p.Dist(q)
	}
	return ExactPairs{pts: pts, dq: dq}
}

// At returns the entry (i, j), i < j, of AllPairsSpatial(q, pts).
func (p ExactPairs) At(i, j int) float64 {
	return exactSS(p.dq[i], p.dq[j], p.pts[i], p.pts[j])
}

// Row writes At(min(i, j), max(i, j)) into dst[j] for every j ≠ i below
// len(dst), which is at most the number of points; dst[i] is left
// unspecified.
func (p ExactPairs) Row(i int, dst []float64) {
	for j := range dst[:min(i, len(dst))] {
		dst[j] = exactSS(p.dq[j], p.dq[i], p.pts[j], p.pts[i])
	}
	for j := i + 1; j < len(dst); j++ {
		dst[j] = exactSS(p.dq[i], p.dq[j], p.pts[i], p.pts[j])
	}
}

// ExactPairSS returns the entry (i, j) of AllPairsSpatial(q, pts) for
// pi = pts[i], pj = pts[j], bit for bit: it evaluates the fill's own
// per-pair expression on the same operands.
func ExactPairSS(q, pi, pj geo.Point) float64 {
	return exactSS(pi.Dist(q), pj.Dist(q), pi, pj)
}

// exactSS is the exact Ptolemy similarity of pi and pj given their
// distances dqi, dqj to the query location.
func exactSS(dqi, dqj float64, pi, pj geo.Point) float64 {
	den := dqi + dqj
	if den == 0 {
		return 1 // both points coincide with q
	}
	d := pi.Dist(pj) / den
	if d > 1 {
		d = 1
	}
	return 1 - d
}

// PSSBaseline returns the exact pSS(p_i) vector (Eq. 6) and the pairwise
// cache it was derived from.
func PSSBaseline(q geo.Point, pts []geo.Point) ([]float64, *pairs.Matrix) {
	m := AllPairsSpatial(q, pts)
	return m.RowSums(), m
}

// PSSBaselineCtx is PSSBaseline with cancellation checkpoints.
func PSSBaselineCtx(ctx context.Context, q geo.Point, pts []geo.Point) ([]float64, *pairs.Matrix, error) {
	m, err := AllPairsSpatialCtx(ctx, q, pts)
	if err != nil {
		return nil, nil, err
	}
	return m.RowSums(), m, nil
}

// RelativeError returns |Σ approx − Σ exact| / Σ exact, the relative
// approximation error of Σ_{p∈S} pSS(p) reported in Figure 9. It returns 0
// when the exact sum is 0.
func RelativeError(approx, exact []float64) float64 {
	var sa, se float64
	for _, v := range approx {
		sa += v
	}
	for _, v := range exact {
		se += v
	}
	if se == 0 {
		return 0
	}
	d := sa - se
	if d < 0 {
		d = -d
	}
	return d / se
}
