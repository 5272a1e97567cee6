package grid

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/pairs"
)

// Squared is the squared grid of Section 7.1: a regular |g| × |g| grid of
// square cells centred on the query location q, with side length
// G_z = 2·fp̄ (twice the distance from q to the farthest place). Every
// place is represented by the centre of its cell.
type Squared struct {
	center geo.Point // G_c, the query location
	size   float64   // G_z, the grid's side length
	side   int       // |g| = √|G| cells per row/column (even)
	cellsz float64   // side length of one cell
	counts []int32   // |c_i| for every cell, row-major
	cellOf []int32   // cell index of every assigned point
	occ    []int32   // indices of non-empty cells, ascending
	occIdx []int32   // per point, the position of its cell in occ

	// cs caches the dense occupied-cell similarity table (cs[a*len(occ)+b]
	// = sS between the centres of occ[a] and occ[b], diagonal 1) built by
	// cellScores for the fallback paths that compute similarities on the
	// fly. mrow/pmi cache the maximal-grid index translation for the
	// table-driven paths (keyed by mtbl). PSS and ApproxAllPairsCtx share
	// the builds; not safe for concurrent first use.
	cs   []float64
	mrow []int32 // per occupied cell: flat index of its centre in the maximal grid
	pmi  []int32 // per point: mrow of its cell
	mtbl *SquaredTable
}

// SideForCells returns the per-axis cell count |g| for a requested total
// number of cells |G|: the smallest even integer with side² ≥ cells.
func SideForCells(cells int) int {
	if cells < 1 {
		cells = 1
	}
	side := int(math.Ceil(math.Sqrt(float64(cells))))
	if side%2 == 1 {
		side++
	}
	return side
}

// NewSquared builds the grid for query location q covering pts, with
// approximately cells cells (|G| ≈ K is the paper's recommended setting),
// and assigns every point to its cell (Steps 1–2 of Algorithm 2).
func NewSquared(q geo.Point, pts []geo.Point, cells int) (*Squared, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("grid: invalid query location %v", q)
	}
	for i, p := range pts {
		if !p.Valid() {
			return nil, fmt.Errorf("grid: invalid point %d: %v", i, p)
		}
	}
	side := SideForCells(cells)
	fp := geo.FarthestDist(q, pts)
	g := &Squared{
		center: q,
		size:   2 * fp,
		side:   side,
		counts: make([]int32, side*side),
		cellOf: make([]int32, len(pts)),
	}
	if fp > 0 {
		g.cellsz = g.size / float64(side)
	}
	for i, p := range pts {
		c := g.CellOf(p)
		g.cellOf[i] = int32(c)
		if g.counts[c] == 0 {
			g.occ = append(g.occ, int32(c))
		}
		g.counts[c]++
	}
	sortInt32(g.occ)
	// Compact per-point index into occ: the aggregation loops work over
	// the dense occupied-cell table instead of the sparse side² cell space.
	pos := make([]int32, side*side)
	for a, c := range g.occ {
		pos[c] = int32(a)
	}
	g.occIdx = make([]int32, len(pts))
	for i, c := range g.cellOf {
		g.occIdx[i] = pos[c]
	}
	return g, nil
}

// Side returns |g|, the number of cells per row.
func (g *Squared) Side() int { return g.side }

// Cells returns |G| = side², the total number of cells.
func (g *Squared) Cells() int { return g.side * g.side }

// OccupiedCells returns the number of non-empty cells.
func (g *Squared) OccupiedCells() int { return len(g.occ) }

// CellOf returns the row-major index of the cell containing p. Points on
// (or marginally beyond, from floating-point drift) the boundary are
// clamped into the grid.
func (g *Squared) CellOf(p geo.Point) int {
	if g.cellsz == 0 {
		// Degenerate grid: every point coincides with q; use the cell just
		// above-right of the centre.
		return (g.side/2)*g.side + g.side/2
	}
	half := float64(g.size / 2)
	cx := clampCell(int(math.Floor((p.X-(g.center.X-half))/g.cellsz)), g.side)
	cy := clampCell(int(math.Floor((p.Y-(g.center.Y-half))/g.cellsz)), g.side)
	return cy*g.side + cx
}

// CellCenter returns the world coordinates of the centre of cell idx.
func (g *Squared) CellCenter(idx int) geo.Point {
	cx, cy := idx%g.side, idx/g.side
	half := float64(g.size / 2)
	cs := g.cellsz
	if cs == 0 {
		cs = 1 // degenerate grid; centres are only meaningful relatively
	}
	return geo.Pt(
		g.center.X-half+float64((float64(cx)+0.5)*cs),
		g.center.Y-half+float64((float64(cy)+0.5)*cs),
	)
}

// unitCenter returns the centre of cell idx in grid-relative units (cell
// size 1, grid centre at the origin) — the representation under which
// Theorem 7.1 makes sS independent of the actual cell size.
func unitCenter(idx, side int) geo.Point {
	cx, cy := idx%side, idx/side
	// x/2 compiles to x·0.5; the conversion rounds it, so arm64 does not
	// fuse it into the subtractions (see pairs.Blend).
	h := float64(float64(side) / 2)
	return geo.Pt(float64(cx)+0.5-h, float64(cy)+0.5-h)
}

// tableDriven reports whether tbl covers this grid, i.e. whether the
// aggregation loops can gather similarities straight out of the maximal
// table instead of computing (or densifying) them.
func (g *Squared) tableDriven(tbl *SquaredTable) bool {
	return tbl != nil && g.side <= tbl.maxSide
}

// maximalIdx returns the cached maximal-grid index translation for tbl:
// mrow[a] is the flat G_MAX index of occ[a]'s centre, pmi[i] that of
// point i's cell. One div/mod per occupied cell replaces SquaredTable.At's
// per-pair translation; with it the table-driven loops read tbl.v rows
// directly — the same elements At would return, so every similarity keeps
// its exact bits — without materialising an occupied-cell copy first.
// Only meaningful when tableDriven(tbl) holds.
func (g *Squared) maximalIdx(tbl *SquaredTable) (mrow, pmi []int32) {
	if g.mrow != nil && g.mtbl == tbl {
		return g.mrow, g.pmi
	}
	off := (tbl.maxSide - g.side) / 2
	mrow = make([]int32, len(g.occ))
	for a, c := range g.occ {
		ci := int(c)
		mrow[a] = int32((ci/g.side+off)*tbl.maxSide + ci%g.side + off)
	}
	pmi = make([]int32, len(g.cellOf))
	for i, a := range g.occIdx {
		pmi[i] = mrow[a]
	}
	g.mrow, g.pmi, g.mtbl = mrow, pmi, tbl
	return mrow, pmi
}

// cellScores returns the dense occupied-cell similarity table for the
// fallback paths — no precomputed table, or a grid wider than the table
// covers: entry a*len(occ)+b is sS between the centres of occ[a] and
// occ[b] (diagonal 1), computed by Ptolemy on unit-scale centres. Built
// once per grid and cached so PSS and the fills share one build. The
// table-driven paths never call this: they gather from tbl.v through
// maximalIdx instead of densifying a copy.
func (g *Squared) cellScores() []float64 {
	if g.cs != nil {
		return g.cs
	}
	ns := len(g.occ)
	cs := make([]float64, ns*ns)
	for a := 0; a < ns; a++ {
		cs[a*ns+a] = 1
		for b := a + 1; b < ns; b++ {
			s := unitSS(int(g.occ[a]), int(g.occ[b]), g.side)
			cs[a*ns+b] = s
			cs[b*ns+a] = s
		}
	}
	g.cs = cs
	return cs
}

// PSS computes the approximate pSS(p) score for every assigned point
// (Step 3 of Algorithm 2, Eq. 18), using tbl for precomputed cell-centre
// similarities; a nil tbl computes them on the fly.
func (g *Squared) PSS(tbl *SquaredTable) []float64 {
	ns := len(g.occ)
	// Aggregate per occupied cell in the same (a ≤ b) order as the
	// per-pair implementation so the sums stay bit-identical.
	acc := make([]float64, ns)
	if g.tableDriven(tbl) {
		mrow, _ := g.maximalIdx(tbl)
		mc := tbl.maxSide * tbl.maxSide
		for a := 0; a < ns; a++ {
			ca := float64(g.counts[g.occ[a]])
			acc[a] += ca // s = 1 on the diagonal
			trow := tbl.v[int(mrow[a])*mc : int(mrow[a])*mc+mc]
			for b := a + 1; b < ns; b++ {
				s := trow[mrow[b]]
				acc[a] += float64(float64(g.counts[g.occ[b]]) * s)
				acc[b] += float64(ca * s)
			}
		}
	} else {
		cs := g.cellScores()
		for a := 0; a < ns; a++ {
			ca := float64(g.counts[g.occ[a]])
			acc[a] += ca // s = 1 on the diagonal
			for b := a + 1; b < ns; b++ {
				s := cs[a*ns+b]
				acc[a] += float64(float64(g.counts[g.occ[b]]) * s)
				acc[b] += float64(ca * s)
			}
		}
	}
	out := make([]float64, len(g.cellOf))
	for i, a := range g.occIdx {
		out[i] = acc[a] - 1 // disregard the place's comparison to itself
	}
	return out
}

// ApproxAllPairs returns the approximate pairwise sS matrix in which each
// point is replaced by its cell centre. This is what the optimised greedy
// pipeline uses for the pairwise sF scores: with a similarity table in
// hand the n²/2 fill is one table load and one store per pair.
func (g *Squared) ApproxAllPairs(tbl *SquaredTable) *pairs.Matrix {
	m, _ := g.ApproxAllPairsCtx(context.Background(), tbl)
	return m
}

// ApproxAllPairsCtx is ApproxAllPairs filled through pairs.FillRows, with
// its cancellation checkpoints. On cancellation the partial matrix is
// discarded and ctx.Err() returned.
func (g *Squared) ApproxAllPairsCtx(ctx context.Context, tbl *SquaredTable) (*pairs.Matrix, error) {
	return pairs.FillRows(ctx, len(g.cellOf), g.Rows(tbl))
}

// Rows returns the row function of ApproxAllPairsCtx(…, tbl): rows(i,
// row) writes sS of the points i, j for j = i+1 … n−1 into row[j−i−1].
// Row i is gathered out of row idx[i] of a flat similarity table src (rows
// of length stride, indexed by idx again): the maximal table translated
// through maximalIdx when tbl covers the grid — no O(occupied²) densified
// copy to build first — and the occupied-cell table otherwise, built here.
func (g *Squared) Rows(tbl *SquaredTable) func(i int, row []float64) {
	var (
		src    []float64
		stride int
		idx    []int32
	)
	if g.tableDriven(tbl) {
		_, idx = g.maximalIdx(tbl)
		src, stride = tbl.v, tbl.maxSide*tbl.maxSide
	} else {
		src, stride, idx = g.cellScores(), len(g.occ), g.occIdx
	}
	return func(i int, row []float64) {
		crow := src[int(idx[i])*stride : int(idx[i])*stride+stride]
		for t, oj := range idx[i+1:] {
			row[t] = crow[oj]
		}
	}
}

// SquaredPairs is the O(K) state from which any single entry of the
// matrix ApproxAllPairsCtx fills can be reproduced bit for bit: the same
// table element the fill gathers, or the same unitSS call that built the
// occupied-cell table it gathers from otherwise. The zero value is unused.
type SquaredPairs struct {
	tbl  *SquaredTable // nil when the fill did not gather from a table
	side int
	// idx holds, per point, the flat G_MAX index of its cell when tbl is
	// set and the cell index in this grid otherwise.
	idx []int32
}

// Pairs returns the pair state for the matrix ApproxAllPairsCtx(ctx, tbl)
// fills.
func (g *Squared) Pairs(tbl *SquaredTable) SquaredPairs {
	if g.tableDriven(tbl) {
		_, pmi := g.maximalIdx(tbl)
		return SquaredPairs{tbl: tbl, side: g.side, idx: pmi}
	}
	return SquaredPairs{side: g.side, idx: g.cellOf}
}

// At returns sS between points i and j (i ≠ j).
func (p SquaredPairs) At(i, j int) float64 {
	a, b := int(p.idx[i]), int(p.idx[j])
	if p.tbl != nil {
		return p.tbl.v[a*p.tbl.Cells()+b]
	}
	if a == b {
		return 1
	}
	if a > b {
		a, b = b, a // cellScores computes each cell pair in ascending order
	}
	return unitSS(a, b, p.side)
}

// Row writes At(i, j) into dst[j] for every j ≠ i below len(dst), which
// is at most the number of points; dst[i] is left unspecified. At is
// symmetric, as
// the table stores each cell pair's score at both (a, b) and (b, a) and
// the direct path orders the cells first, so the row gathers from the row
// of i's cell alone.
func (p SquaredPairs) Row(i int, dst []float64) {
	if p.tbl != nil {
		cells := p.tbl.Cells()
		crow := p.tbl.v[int(p.idx[i])*cells : int(p.idx[i])*cells+cells]
		for j, b := range p.idx[:len(dst)] {
			dst[j] = crow[b]
		}
		return
	}
	for j := range dst {
		if j != i {
			dst[j] = p.At(i, j)
		}
	}
}

// Bytes returns the memory footprint of the per-point indices.
func (p SquaredPairs) Bytes() int { return len(p.idx) * 4 }

// unitSS computes sS between the unit-scale centres of two cells of a grid
// with the given side, w.r.t. the grid centre (Theorem 7.1 guarantees this
// equals the true-scale value).
func unitSS(ci, cj, side int) float64 {
	return geo.PtolemySimilarity(geo.Pt(0, 0), unitCenter(ci, side), unitCenter(cj, side))
}

// SquaredTable precomputes sS between the cell centres of a maximal
// squared grid G_MAX. Because cell-centre similarity depends only on the
// cells' positions relative to the grid centre measured in whole cells
// (Theorem 7.1), one table serves every query location, grid size G_z, and
// any grid with side ≤ MaxSide (an even-sided grid is a centred sub-grid
// of G_MAX).
type SquaredTable struct {
	maxSide int
	v       []float64 // v[ci*cells + cj] for the maximal grid
}

// NewSquaredTable precomputes the table for grids up to maxSide cells per
// row. maxSide is rounded up to an even number.
func NewSquaredTable(maxSide int) *SquaredTable {
	if maxSide < 2 {
		maxSide = 2
	}
	if maxSide%2 == 1 {
		maxSide++
	}
	cells := maxSide * maxSide
	t := &SquaredTable{maxSide: maxSide, v: make([]float64, cells*cells)}
	centers := make([]geo.Point, cells)
	for i := range centers {
		centers[i] = unitCenter(i, maxSide)
	}
	origin := geo.Pt(0, 0)
	for i := 0; i < cells; i++ {
		t.v[i*cells+i] = 1
		for j := i + 1; j < cells; j++ {
			s := geo.PtolemySimilarity(origin, centers[i], centers[j])
			t.v[i*cells+j] = s
			t.v[j*cells+i] = s
		}
	}
	return t
}

// MaxSide returns the largest grid side the table covers.
func (t *SquaredTable) MaxSide() int { return t.maxSide }

// Cells returns |G_MAX| = MaxSide², the number of cells of the maximal
// grid the table was built for.
func (t *SquaredTable) Cells() int { return t.maxSide * t.maxSide }

// Bytes returns the memory footprint of the precomputed matrix, for
// capacity planning and stats endpoints (the table is |G_MAX|² float64s).
func (t *SquaredTable) Bytes() int { return len(t.v) * 8 }

// At returns the precomputed sS between the centres of cells ci and cj of
// a grid with the given (even) side ≤ MaxSide; larger grids fall back to
// direct computation.
func (t *SquaredTable) At(side, ci, cj int) float64 {
	if side > t.maxSide {
		return unitSS(ci, cj, side)
	}
	off := (t.maxSide - side) / 2
	mi := (ci/side+off)*t.maxSide + ci%side + off
	mj := (cj/side+off)*t.maxSide + cj%side + off
	return t.v[mi*t.maxSide*t.maxSide+mj]
}

// squaredCrossoverPlaces is the instance size above which the squared-grid
// approximation reliably beats the exact all-pairs baseline on this
// implementation (measured: squared wins from ~64 places, is a wash around
// 128 when |G| ≈ K keeps occupancy high, and wins 1.3–2x beyond; exact
// wins below 64 where grid construction dominates). Chosen conservatively
// so an estimated downshift never makes a query slower.
const squaredCrossoverPlaces = 128

// SquaredLikelyFaster estimates whether the squared-grid approximation
// (NewSquared + PSS + ApproxAllPairs at |G| ≈ K) is faster than the exact
// all-pairs baseline for an instance of n places. Degradation paths use it
// to decide whether an exact→grid downshift actually buys latency: the
// grid's per-pair work is a table load while the exact path pays two
// square roots, but below the crossover the grid's fixed costs (cell
// assignment and the occupied-cell table) outweigh the saving.
func SquaredLikelyFaster(n int) bool { return n >= squaredCrossoverPlaces }

func clampCell(c, side int) int {
	if c < 0 {
		return 0
	}
	if c >= side {
		return side - 1
	}
	return c
}

func sortInt32(s []int32) {
	// Insertion sort: occupied-cell lists are short and nearly sorted
	// (points are appended in first-touch order).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
