package grid

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/pairs"
)

// Radial is the radial grid of Section 7.1.2: r_c homocentric circles
// centred at the query location q with radii that are multiples of a
// constant c_z (the outermost circle has diameter 2·fp̄), crossed by R_d
// diameters that split the plane into 2·R_d equal slices. With the paper's
// setting R_d = 2·r_c this yields |R| = 2·R_d·r_c = R_d² sectors. Sector
// sizes shrink towards q, which can approximate better when many places
// are close to the query.
type Radial struct {
	center geo.Point
	rings  int     // r_c
	slices int     // 2·R_d = 4·r_c
	cz     float64 // ring width (c_z)
	counts []int32 // |s_i| per sector, index = ring·slices + slice
	cellOf []int32 // sector index of every assigned point
	occ    []int32 // indices of non-empty sectors, ascending
}

// RingsForCells returns r_c for a requested total sector count |R| = R_d²
// with R_d = 2·r_c: the smallest r_c with (2·r_c)² ≥ cells.
func RingsForCells(cells int) int {
	if cells < 4 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(cells)) / 2))
}

// NewRadial builds the radial grid for q covering pts with approximately
// cells sectors, and assigns every point to its sector.
func NewRadial(q geo.Point, pts []geo.Point, cells int) (*Radial, error) {
	if !q.Valid() {
		return nil, fmt.Errorf("grid: invalid query location %v", q)
	}
	for i, p := range pts {
		if !p.Valid() {
			return nil, fmt.Errorf("grid: invalid point %d: %v", i, p)
		}
	}
	rings := RingsForCells(cells)
	fp := geo.FarthestDist(q, pts)
	r := &Radial{
		center: q,
		rings:  rings,
		slices: 4 * rings,
		counts: make([]int32, rings*4*rings),
		cellOf: make([]int32, len(pts)),
	}
	if fp > 0 {
		r.cz = fp / float64(rings)
	}
	for i, p := range pts {
		c := r.SectorOf(p)
		r.cellOf[i] = int32(c)
		if r.counts[c] == 0 {
			r.occ = append(r.occ, int32(c))
		}
		r.counts[c]++
	}
	sortInt32(r.occ)
	return r, nil
}

// Rings returns r_c.
func (r *Radial) Rings() int { return r.rings }

// Sectors returns |R|, the total number of sectors.
func (r *Radial) Sectors() int { return r.rings * r.slices }

// OccupiedSectors returns the number of non-empty sectors.
func (r *Radial) OccupiedSectors() int { return len(r.occ) }

// SectorOf returns the index (ring·slices + slice) of the sector
// containing p. Points beyond the outermost circle are clamped to it.
func (r *Radial) SectorOf(p geo.Point) int {
	if r.cz == 0 {
		return 0 // degenerate: all points coincide with q
	}
	d := p.Dist(r.center)
	ring := int(d / r.cz)
	if ring >= r.rings {
		ring = r.rings - 1
	}
	slice := int(p.Angle(r.center) / (2 * math.Pi / float64(r.slices)))
	if slice >= r.slices {
		slice = r.slices - 1 // angle == 2π from rounding
	}
	return ring*r.slices + slice
}

// Representative returns the world coordinates of the representative point
// of sector idx: the intersection of the circle with the sector's average
// radius and the ray with the sector's average angle.
func (r *Radial) Representative(idx int) geo.Point {
	cz := r.cz
	if cz == 0 {
		cz = 1
	}
	ring, slice := idx/r.slices, idx%r.slices
	rad := (float64(ring) + 0.5) * cz
	ang := (float64(slice) + 0.5) * 2 * math.Pi / float64(r.slices)
	return geo.Pt(r.center.X+float64(rad*math.Cos(ang)), r.center.Y+float64(rad*math.Sin(ang)))
}

// unitRepresentative is Representative at unit c_z with the grid centre at
// the origin — scale-free per Theorem 7.1.
func unitRepresentative(idx, slices int) geo.Point {
	ring, slice := idx/slices, idx%slices
	rad := float64(ring) + 0.5
	ang := (float64(slice) + 0.5) * 2 * math.Pi / float64(slices)
	return geo.Pt(rad*math.Cos(ang), rad*math.Sin(ang))
}

// PSS computes the approximate pSS(p) for every assigned point using the
// sector representatives (Algorithm 2 on the radial grid); a nil tbl
// computes representative similarities on the fly.
func (r *Radial) PSS(tbl *RadialTable) []float64 {
	cellScore := make(map[int32]float64, len(r.occ))
	for a, ci := range r.occ {
		for b := a; b < len(r.occ); b++ {
			cj := r.occ[b]
			var s float64
			if ci == cj {
				s = 1
			} else if tbl != nil {
				s = tbl.At(r.rings, int(ci), int(cj))
			} else {
				s = unitRadialSS(int(ci), int(cj), r.slices)
			}
			cellScore[ci] += float64(float64(r.counts[cj]) * s)
			if ci != cj {
				cellScore[cj] += float64(float64(r.counts[ci]) * s)
			}
		}
	}
	out := make([]float64, len(r.cellOf))
	for i, c := range r.cellOf {
		out[i] = cellScore[c] - 1
	}
	return out
}

// ApproxAllPairs returns the approximate pairwise sS matrix in which each
// point is replaced by its sector representative.
func (r *Radial) ApproxAllPairs(tbl *RadialTable) *pairs.Matrix {
	m, _ := pairs.FillRows(context.Background(), len(r.cellOf), r.Rows(tbl))
	return m
}

// Rows returns the row function of ApproxAllPairs(tbl): rows(i, row)
// writes sS of the points i, j for j = i+1 … n−1 into row[j−i−1], the
// value RadialPairs.At returns for the pair. With a table, row i is
// gathered from the row of i's sector in the table's matrix for this ring
// count, fetched once here (its diagonal holds RadialPairs.At's 1 for two
// points in one sector).
func (r *Radial) Rows(tbl *RadialTable) func(i int, row []float64) {
	cell := r.cellOf
	if tbl == nil {
		p := r.Pairs(nil)
		return func(i int, row []float64) {
			for t := range row {
				row[t] = p.At(i, i+1+t)
			}
		}
	}
	m, sectors := tbl.matrix(r.rings), r.Sectors()
	return func(i int, row []float64) {
		crow := m[int(cell[i])*sectors : int(cell[i])*sectors+sectors]
		for t, cj := range cell[i+1:] {
			row[t] = crow[cj]
		}
	}
}

// RadialPairs is the O(K) state from which any single entry of the matrix
// ApproxAllPairs fills can be reproduced: ApproxAllPairs fills every entry
// through RadialPairs.At. The zero value is unused.
type RadialPairs struct {
	tbl           *RadialTable
	rings, slices int
	cell          []int32 // sector index of every point
}

// Pairs returns the pair state for the matrix ApproxAllPairs(tbl) fills.
func (r *Radial) Pairs(tbl *RadialTable) RadialPairs {
	return RadialPairs{tbl: tbl, rings: r.rings, slices: r.slices, cell: r.cellOf}
}

// At returns sS between points i < j, as ApproxAllPairs stores it.
func (p RadialPairs) At(i, j int) float64 {
	ci, cj := int(p.cell[i]), int(p.cell[j])
	switch {
	case ci == cj:
		return 1
	case p.tbl != nil:
		return p.tbl.At(p.rings, ci, cj)
	default:
		return unitRadialSS(ci, cj, p.slices)
	}
}

// Row writes At(min(i, j), max(i, j)) into dst[j] for every j ≠ i below
// len(dst), which is at most the number of points; dst[i] is left
// unspecified.
// With a table, the row is gathered from the row of i's sector in the
// table's matrix, which stores each sector pair's score at both (a, b)
// and (b, a) and 1 on its diagonal, as At returns for one sector.
func (p RadialPairs) Row(i int, dst []float64) {
	if p.tbl != nil {
		m, sectors := p.tbl.matrix(p.rings), p.rings*p.slices
		crow := m[int(p.cell[i])*sectors : int(p.cell[i])*sectors+sectors]
		for j, c := range p.cell[:len(dst)] {
			dst[j] = crow[c]
		}
		return
	}
	for j := range dst[:min(i, len(dst))] {
		dst[j] = p.At(j, i)
	}
	for j := i + 1; j < len(dst); j++ {
		dst[j] = p.At(i, j)
	}
}

// Bytes returns the memory footprint of the per-point sector indices.
func (p RadialPairs) Bytes() int { return len(p.cell) * 4 }

func unitRadialSS(ci, cj, slices int) float64 {
	return geo.PtolemySimilarity(geo.Pt(0, 0),
		unitRepresentative(ci, slices), unitRepresentative(cj, slices))
}

// RadialTable precomputes sS between sector representatives. Unlike the
// squared grid, a radial grid with fewer rings is not a sub-grid of a
// larger one (the slice count changes with r_c), so the table memoises one
// matrix per ring count. It is safe for concurrent use.
type RadialTable struct {
	mu  sync.Mutex
	per map[int][]float64 // rings → sectors×sectors similarity matrix
}

// NewRadialTable returns an empty memoising table.
func NewRadialTable() *RadialTable {
	return &RadialTable{per: make(map[int][]float64)}
}

// Resolutions returns the number of ring counts whose matrices have been
// built and memoised so far.
func (t *RadialTable) Resolutions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.per)
}

// Bytes returns the memory footprint of all memoised matrices.
func (t *RadialTable) Bytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int
	for _, m := range t.per {
		n += len(m) * 8
	}
	return n
}

// At returns the precomputed sS between the representatives of sectors ci
// and cj of a radial grid with the given ring count, computing and caching
// the matrix for that ring count on first use.
func (t *RadialTable) At(rings, ci, cj int) float64 {
	return t.matrix(rings)[ci*rings*4*rings+cj]
}

// matrix returns the sectors×sectors similarity matrix for the ring
// count, building and memoising it on first use.
func (t *RadialTable) matrix(rings int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.per[rings]
	if !ok {
		m = buildRadialMatrix(rings)
		t.per[rings] = m
	}
	return m
}

func buildRadialMatrix(rings int) []float64 {
	slices := 4 * rings
	sectors := rings * slices
	reps := make([]geo.Point, sectors)
	for i := range reps {
		reps[i] = unitRepresentative(i, slices)
	}
	v := make([]float64, sectors*sectors)
	origin := geo.Pt(0, 0)
	for i := 0; i < sectors; i++ {
		v[i*sectors+i] = 1
		for j := i + 1; j < sectors; j++ {
			s := geo.PtolemySimilarity(origin, reps[i], reps[j])
			v[i*sectors+j] = s
			v[j*sectors+i] = s
		}
	}
	return v
}
