package core

import (
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/pairs"
)

// spatialPairs is a score set's one source of sS under its spatial
// method, built by spatialSetup. At recomputes a single pair; rows
// returns the row source that Step 1's exact and custom sums and a
// selection's instance read whole rows from. Both give the bits of the
// method's all-pairs fill.
type spatialPairs interface {
	// At returns sS(p_i, p_j), i < j.
	At(i, j int) float64
	// rows returns the method's row source for one request.
	rows() pairs.Rows
	// Bytes returns the memory the source holds of its own.
	Bytes() int
}

// exactPairs is the exact method's source. It keeps no per-place state:
// At recomputes both distances to q, and rows computes every place's
// distance to q once for the request that reads rows.
type exactPairs struct {
	q      geo.Point
	places []Place
}

func (p exactPairs) At(i, j int) float64 {
	return grid.ExactPairSS(p.q, p.places[i].Loc, p.places[j].Loc)
}

func (p exactPairs) rows() pairs.Rows { return grid.NewExactPairs(p.q, locations(p.places)) }

func (exactPairs) Bytes() int { return 0 }

// squaredPairs and radialPairs are the grids' sources: the grid's pair
// type serves At and rows alike from its per-place cell or sector
// indices.
type squaredPairs struct{ grid.SquaredPairs }

func (p squaredPairs) rows() pairs.Rows { return p.SquaredPairs }

type radialPairs struct{ grid.RadialPairs }

func (p radialPairs) rows() pairs.Rows { return p.RadialPairs }

// customPairs is the custom method's source: the hook's matrix.
type customPairs struct{ m *pairs.Matrix }

func (p customPairs) At(i, j int) float64 { return p.m.At(i, j) }

// Row writes m's entry (min(i, j), max(i, j)) for j = lo+t into dst[t],
// for every t below len(dst); the entry for j = i is left unspecified.
func (p customPairs) Row(i, lo int, dst []float64) {
	hi := lo + len(dst)
	for j := lo; j < min(i, hi); j++ {
		dst[j-lo] = p.m.At(j, i)
	}
	if from := max(lo, i+1); from < hi {
		copy(dst[from-lo:], p.m.Row(i)[from-i-1:hi-i-1])
	}
}

func (p customPairs) rows() pairs.Rows { return p }

func (p customPairs) Bytes() int { return p.m.Bytes() }

// locations returns the places' locations.
func locations(places []Place) []geo.Point {
	pts := make([]geo.Point, len(places))
	for i := range places {
		pts[i] = places[i].Loc
	}
	return pts
}
