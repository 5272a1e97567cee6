package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/pairs"
)

// TestInstanceRowMatchesPair pins the instance's row kernel to Pair: for
// every place i and every j ≠ i, Row(i, ·)[j] carries the bits of
// Pair(i, j)'s sF, under every spatial method — the exact path, the
// squared grid with a covering table, a narrower one and none, the radial
// grid with and without its table, and a custom matrix inside [0, 1] and
// one with entries outside it (the rank join's exhaustive case) — across
// γ, on instances whose contexts have a tail and ones that fit the head,
// and on one whose sets are too long for the Jaccard table. Every other
// row is cut short first, as ABP's bands cut them, and must leave the
// rows after it exact.
func TestInstanceRowMatchesPair(t *testing.T) {
	loose := func(q geo.Point, places []Place) (*pairs.Matrix, error) {
		m, err := originHook(q, places)
		for i := 0; i < m.N(); i++ {
			row := m.Row(i)
			for t := range row {
				if (i+t)%3 == 0 {
					row[t] = 2*row[t] - 1.5
				}
			}
		}
		return m, err
	}
	methods := []struct {
		name string
		opt  ScoreOptions
	}{
		{"exact", ScoreOptions{Spatial: SpatialExact}},
		{"squared-table", ScoreOptions{Spatial: SpatialSquaredGrid, SquaredTable: grid.NewSquaredTable(20)}},
		{"squared-narrow", ScoreOptions{Spatial: SpatialSquaredGrid, SquaredTable: grid.NewSquaredTable(2)}},
		{"squared", ScoreOptions{Spatial: SpatialSquaredGrid}},
		{"radial-table", ScoreOptions{Spatial: SpatialRadialGrid, RadialTable: grid.NewRadialTable()}},
		{"radial", ScoreOptions{Spatial: SpatialRadialGrid}},
		{"custom", ScoreOptions{Spatial: SpatialCustom, CustomSpatial: originHook}},
		{"custom-loose", ScoreOptions{Spatial: SpatialCustom, CustomSpatial: loose}},
	}
	for _, inst := range []struct {
		n, vocab int
		flags    uint8
	}{{2, 3, 0}, {37, 20, 7}, {150, 600, 3}, {60, 0, 0}} {
		var q geo.Point
		var places []Place
		if inst.vocab > 0 {
			q, places = fuzzInstance(int64(inst.n), inst.n, inst.vocab, inst.flags)
		} else {
			q = geo.Pt(0, 0)
			places = makePlaces(rand.New(rand.NewSource(5)), q, inst.n, 90, 200, 0.2)
			if x := newContextIndex(places); x.jac != nil {
				t.Fatal("sets of up to 90 items fit the Jaccard table")
			}
		}
		for _, m := range methods {
			for _, gamma := range []float64{0, 0.3, 0.5, 1} {
				opt := m.opt
				opt.Gamma = gamma
				ss, err := ComputeScores(q, places, opt)
				if err != nil {
					t.Fatal(err)
				}
				if want := m.name == "custom-loose"; ss.customLoose != want {
					t.Fatalf("%s: customLoose = %v, want %v", m.name, ss.customLoose, want)
				}
				in, row := newInstance(ss), make([]float64, inst.n)
				for i := 0; i < inst.n; i++ {
					cut := inst.n
					if i%2 == 1 {
						cut = (i * 7) % inst.n
					}
					in.Row(i, row[:cut])
					for j := 0; j < cut; j++ {
						if j == i {
							continue
						}
						if _, _, sf := ss.Pair(i, j); math.Float64bits(row[j]) != math.Float64bits(sf) {
							t.Fatalf("n=%d %s γ=%v: Row(%d)[%d] = %v, Pair sF %v", inst.n, m.name, gamma, i, j, row[j], sf)
						}
					}
				}
			}
		}
	}
}

// TestSpatialRowsMatchAt pins every spatial method's row source to its
// At: rows().Row(i, lo, dst)[t] carries the bits of At(min(i, j),
// max(i, j)) for j = lo+t, on windows that start after i, contain i, end
// before i, or are empty — the windows Step 1 (lo = i+1) and the instance
// (lo = 0) read, and the ones between.
func TestSpatialRowsMatchAt(t *testing.T) {
	q, places := fuzzInstance(9, 40, 30, 7)
	n := len(places)
	for _, opt := range []ScoreOptions{
		{Spatial: SpatialExact},
		{Spatial: SpatialSquaredGrid, SquaredTable: grid.NewSquaredTable(20)},
		{Spatial: SpatialRadialGrid},
		{Spatial: SpatialCustom, CustomSpatial: originHook},
	} {
		ss, err := ComputeScores(q, places, opt)
		if err != nil {
			t.Fatal(err)
		}
		rows, dst := ss.sp.rows(), make([]float64, n)
		for i := 0; i < n; i++ {
			for _, w := range [][2]int{{i + 1, n}, {i + 2, i + 5}, {0, n}, {i - 2, i + 3}, {0, i}, {i - 3, i - 1}, {i, i}} {
				lo, hi := max(w[0], 0), min(w[1], n)
				if lo > hi {
					continue
				}
				rows.Row(i, lo, dst[:hi-lo])
				for j := lo; j < hi; j++ {
					if j == i {
						continue
					}
					want := ss.sp.At(min(i, j), max(i, j))
					if got := dst[j-lo]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v: Row(%d, %d)[%d] = %v, At = %v", opt.Spatial, i, lo, j-lo, got, want)
					}
				}
			}
		}
	}
}
