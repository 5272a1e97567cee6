package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// pairType is what every spatial method's pair type offers.
type pairType interface {
	At(i, j int) float64
	Row(i, lo int, dst []float64)
}

// TestRowMatchesAt pins the row contract of every pair type: Row(i, lo,
// dst) writes At(min(i, j), max(i, j)) for j = lo+t into dst[t], bit for
// bit, on windows that start after i, contain i, end before i, or are
// empty — for the exact method, the squared grid with a covering table, a
// narrower one and none, and the radial grid with and without a table.
// The instance mixes spread points with clusters that share a cell and
// points at q, where the exact expression takes its den == 0 branch.
func TestRowMatchesAt(t *testing.T) {
	q := geo.Pt(5, -2)
	rng := rand.New(rand.NewSource(31))
	pts := uniformPoints(rng, q, 50, 4)
	pts = append(pts, gaussianPoints(rng, geo.Pt(6, -1), 12, 0.01)...)
	pts = append(pts, q, q)
	n := len(pts)
	sq, err := NewSquared(q, pts, n)
	if err != nil {
		t.Fatal(err)
	}
	rad, err := NewRadial(q, pts, n)
	if err != nil {
		t.Fatal(err)
	}
	if sq.Side() > 16 || sq.Side() <= 4 {
		t.Fatalf("side %d: the tables below no longer cover and miss it", sq.Side())
	}
	for _, c := range []struct {
		name string
		p    pairType
	}{
		{"exact", NewExactPairs(q, pts)},
		{"squared-table", sq.Pairs(NewSquaredTable(16))},
		{"squared-narrow", sq.Pairs(NewSquaredTable(4))},
		{"squared", sq.Pairs(nil)},
		{"radial-table", rad.Pairs(NewRadialTable())},
		{"radial", rad.Pairs(nil)},
	} {
		dst := make([]float64, n)
		for i := 0; i < n; i++ {
			for _, w := range [][2]int{
				{i + 1, n}, {i + 2, i + 6}, // after i
				{0, n}, {i - 2, i + 3}, {i, i + 1}, // containing i
				{0, i}, {i - 4, i - 1}, // before i
				{i, i}, {0, 0}, {n, n}, // empty
			} {
				lo, hi := max(w[0], 0), min(w[1], n)
				if lo > hi {
					continue
				}
				for k := range dst {
					dst[k] = math.NaN()
				}
				c.p.Row(i, lo, dst[:hi-lo])
				for j := lo; j < hi; j++ {
					if j == i {
						continue
					}
					want := c.p.At(min(i, j), max(i, j))
					if got := dst[j-lo]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: Row(%d, %d)[%d] = %v, At = %v", c.name, i, lo, j-lo, got, want)
					}
				}
				for k := hi - lo; k < n; k++ {
					if !math.IsNaN(dst[k]) {
						t.Fatalf("%s: Row(%d, %d) wrote past its %d entries", c.name, i, lo, hi-lo)
					}
				}
			}
		}
	}
}
