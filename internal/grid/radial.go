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
	p := r.Pairs(tbl) // p.m is tbl's matrix for this ring count, nil without tbl
	cellScore := make(map[int32]float64, len(r.occ))
	for a, ci := range r.occ {
		for b := a; b < len(r.occ); b++ {
			cj := r.occ[b]
			var s float64
			if ci == cj {
				s = 1
			} else if p.m != nil {
				s = p.m[int(ci)*p.sectors+int(cj)]
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
// point is replaced by its sector representative, filled through
// pairs.FillRows from r.Pairs(tbl).
func (r *Radial) ApproxAllPairs(tbl *RadialTable) *pairs.Matrix {
	m, _ := pairs.FillRows(context.Background(), len(r.cellOf), r.Pairs(tbl))
	return m
}

// RadialPairs is the radial method's pair type: the O(K) per-point
// sector indices from which any pair's sS is reproduced, and the table's
// matrix for the grid's ring count when there is a table. The zero value
// is unused.
type RadialPairs struct {
	m       []float64 // sectors×sectors, 1 on the diagonal; nil without a table
	sectors int
	slices  int
	cell    []int32 // sector index of every point
}

// Pairs returns the pair type of the grid's points, reading tbl's matrix
// for the grid's ring count (built on first use) when tbl is set.
func (r *Radial) Pairs(tbl *RadialTable) RadialPairs {
	p := RadialPairs{sectors: r.Sectors(), slices: r.slices, cell: r.cellOf}
	if tbl != nil {
		p.m = tbl.matrix(r.rings)
	}
	return p
}

// At returns sS between points i < j: 1 for two points of one sector,
// the table's entry or unitRadialSS for the two sectors otherwise.
func (p RadialPairs) At(i, j int) float64 {
	ci, cj := int(p.cell[i]), int(p.cell[j])
	switch {
	case ci == cj:
		return 1
	case p.m != nil:
		return p.m[ci*p.sectors+cj]
	default:
		return unitRadialSS(ci, cj, p.slices)
	}
}

// Row writes At(min(i, j), max(i, j)) for j = lo+t into dst[t], for every
// t below len(dst); the entry for j = i is left unspecified. With a
// table, the row is gathered from the row of i's sector in the matrix,
// which stores each sector pair's score at both (a, b) and (b, a) and 1
// on its diagonal, as At returns for one sector.
func (p RadialPairs) Row(i, lo int, dst []float64) {
	if p.m != nil {
		ci := int(p.cell[i])
		crow := p.m[ci*p.sectors : ci*p.sectors+p.sectors]
		for t, c := range p.cell[lo : lo+len(dst)] {
			dst[t] = crow[c]
		}
		return
	}
	below := min(max(i-lo, 0), len(dst)) // the window's j < i
	for t := range below {
		dst[t] = p.At(lo+t, i)
	}
	for t := below; t < len(dst); t++ {
		dst[t] = p.At(i, lo+t)
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
