package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/pairs"
	"repro/internal/textctx"
)

// compactInstance draws n places around q with the cases the pair
// functions branch on: empty and repeated contexts (disjoint pairs keep
// +0), places on q and on top of each other (the exact path's zero
// denominator, one grid cell for several places) and repeated relevances.
// With ties set, places come from four prototypes only, so most pair
// scores are exactly equal.
func compactInstance(rng *rand.Rand, q geo.Point, n int, ties bool) []core.Place {
	places := make([]core.Place, n)
	for i := range places {
		r := rng
		if ties {
			r = rand.New(rand.NewSource(int64(i % 4)))
		}
		ids := make([]textctx.ItemID, r.Intn(5))
		for j := range ids {
			ids[j] = textctx.ItemID(r.Intn(12))
		}
		loc := geo.Pt(q.X+r.NormFloat64()*3, q.Y+r.NormFloat64()*3)
		switch r.Intn(8) {
		case 0:
			loc = q
		case 1:
			if i > 0 {
				loc = places[i-1].Loc
			}
		}
		places[i] = core.Place{
			ID:      fmt.Sprintf("p%d", i),
			Loc:     loc,
			Rel:     float64(r.Intn(6)) / 5,
			Context: textctx.NewSet(ids...),
		}
	}
	return places
}

// compactMethods are the Step-1 configurations a reused set must
// reproduce: the exact path, the squared grid gathering from a covering
// table and computing cell-centre scores itself (the grid is wider than
// the table), the radial grid with and without its table, and a custom
// hook that returns the Ptolemy matrix with respect to the origin rather
// than q (so the exact method's recompute would differ from it).
var compactMethods = []struct {
	name string
	opt  core.ScoreOptions
}{
	{"exact", core.ScoreOptions{Spatial: core.SpatialExact}},
	{"squared-table", core.ScoreOptions{Spatial: core.SpatialSquaredGrid, SquaredTable: grid.NewSquaredTable(12)}},
	{"squared-wider", core.ScoreOptions{Spatial: core.SpatialSquaredGrid, SquaredTable: grid.NewSquaredTable(2)}},
	{"radial-table", core.ScoreOptions{Spatial: core.SpatialRadialGrid, RadialTable: grid.NewRadialTable()}},
	{"radial", core.ScoreOptions{Spatial: core.SpatialRadialGrid}},
	{"custom", core.ScoreOptions{Spatial: core.SpatialCustom, CustomSpatial: func(_ geo.Point, ps []core.Place) (*pairs.Matrix, error) {
		pts := make([]geo.Point, len(ps))
		for i := range ps {
			pts[i] = ps[i].Loc
		}
		return grid.AllPairsSpatial(geo.Pt(0, 0), pts), nil
	}}},
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCompactScoreSetBitIdentical: over random and tie-heavy instances ×
// every spatial method × γ ∈ {0, 0.5, 1}, a score set holds O(K) bytes,
// every pair it recomputes equals the triangles of the matrix oracle
// (msJh and the spatial fill, core.MatrixStep1), and a set that has
// already served reads and selections — as a resident cache entry has —
// answers exactly as a fresh Step 1 over the same places: Evaluate,
// PlaceHPF, PairHPF and metrics.Evaluate, and every registered algorithm
// selects the same indices with the same HPF bits, odd k and λ = 1
// included.
func TestCompactScoreSetBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	q := geo.Pt(50, 50)
	for _, n := range []int{2, 3, 9, 40, 120} {
		for _, ties := range []bool{false, true} {
			places := compactInstance(rng, q, n, ties)
			for _, m := range compactMethods {
				for _, gamma := range []float64{0, 0.5, 1} {
					opt := m.opt
					opt.Gamma = gamma
					reused, err := core.ComputeScores(q, places, opt)
					if err != nil {
						t.Fatal(err)
					}
					fresh := func() *core.ScoreSet {
						ss, err := core.ComputeScores(q, places, opt)
						if err != nil {
							t.Fatal(err)
						}
						return ss
					}
					oracle, err := core.MatrixStep1(q, places, opt)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("n=%d ties=%v %s γ=%v", n, ties, m.name, gamma)
					checkCompactPairs(t, label, opt.Spatial == core.SpatialCustom, reused, fresh(), oracle, rng)
					if n <= 40 && gamma == 0.5 || n == 3 {
						checkCompactSelections(t, label, reused, fresh())
					}
				}
			}
		}
	}
}

// setBytesPerPlace bounds what a score set holds per place: the Place
// (64 bytes), three float64 vectors and a grid index.
const setBytesPerPlace = 92

func checkCompactPairs(t *testing.T, label string, custom bool, reused, fresh *core.ScoreSet, oracle *core.MatrixScores, rng *rand.Rand) {
	t.Helper()
	n := reused.K()
	budget := setBytesPerPlace * n
	if custom {
		budget += 8 * n * (n - 1) / 2 // the hook's matrix, which the set keeps
	}
	if b := reused.Bytes(); b > budget {
		t.Fatalf("%s: the set holds %d bytes, budget %d", label, b, budget)
	}
	full, c := fresh, reused
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			wsc, wsp, wsf := oracle.SC.At(i, j), oracle.SS.At(i, j), oracle.SF.At(i, j)
			for _, ss := range []*core.ScoreSet{c, full} {
				sc, sp, sf := ss.Pair(i, j)
				if !sameBits(sc, wsc) || !sameBits(sp, wsp) || !sameBits(sf, wsf) {
					t.Fatalf("%s: pair (%d, %d) reads (%v, %v, %v), oracle (%v, %v, %v)", label, i, j,
						sc, sp, sf, wsc, wsp, wsf)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if !sameBits(full.PCS[i], oracle.PCS[i]) || !sameBits(full.PSS[i], oracle.PSS[i]) || !sameBits(full.PFS[i], oracle.PFS[i]) {
			t.Fatalf("%s: place %d vectors (%v, %v, %v), oracle (%v, %v, %v)", label, i,
				full.PCS[i], full.PSS[i], full.PFS[i], oracle.PCS[i], oracle.PSS[i], oracle.PFS[i])
		}
	}
	for k := 1; k < n && k <= 7; k++ {
		r := rng.Perm(n)[:k]
		for _, lambda := range []float64{0, 0.5, 1} {
			if a, b := full.Evaluate(r, lambda), c.Evaluate(r, lambda); !sameBits(a.Total, b.Total) ||
				!sameBits(a.PC, b.PC) || !sameBits(a.PS, b.PS) || !sameBits(a.Rel, b.Rel) {
				t.Fatalf("%s: Evaluate(%v, λ=%v) fresh %+v, reused %+v", label, r, lambda, a, b)
			}
			for i := 0; i < n; i++ {
				if a, b := full.PlaceHPF(i, r, k, lambda), c.PlaceHPF(i, r, k, lambda); !sameBits(a, b) {
					t.Fatalf("%s: PlaceHPF(%d, %v) fresh %v, reused %v", label, i, r, a, b)
				}
			}
			if k >= 2 {
				if a, b := full.PairHPF(r[0], r[1], k, lambda), c.PairHPF(r[0], r[1], k, lambda); !sameBits(a, b) {
					t.Fatalf("%s: PairHPF(%d, %d) fresh %v, reused %v", label, r[0], r[1], a, b)
				}
			}
		}
		if a, b := metrics.Evaluate(full, r), metrics.Evaluate(c, r); a != b {
			t.Fatalf("%s: metrics.Evaluate(%v) fresh %+v, reused %+v", label, r, a, b)
		}
	}
}

// checkCompactSelections runs every selection on the reused set twice —
// the second time after all the others — and compares both with the
// selection on a fresh set.
func checkCompactSelections(t *testing.T, label string, reused, fresh *core.ScoreSet) {
	t.Helper()
	ctx := context.Background()
	for _, pass := range []string{"first", "again"} {
		checkSelections(t, label+" "+pass, ctx, fresh, reused)
	}
}

func checkSelections(t *testing.T, label string, ctx context.Context, full, c *core.ScoreSet) {
	t.Helper()
	for _, alg := range core.Algorithms() {
		for _, k := range []int{1, 2, 3, 5} {
			if k >= full.K() || alg == core.AlgExact && full.K() > 9 {
				continue // the brute force over C(K, k) subsets would dominate the test
			}
			for _, lambda := range []float64{0.5, 1} {
				p := core.Params{K: k, Lambda: lambda, Gamma: full.Gamma}
				want, werr := core.SelectCtx(ctx, alg, full, p)
				got, gerr := core.SelectCtx(ctx, alg, c, p)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s %s k=%d λ=%v: fresh err %v, reused err %v", label, alg, k, lambda, werr, gerr)
				}
				if fmt.Sprint(want.Indices) != fmt.Sprint(got.Indices) || !sameBits(want.HPF, got.HPF) {
					t.Fatalf("%s %s k=%d λ=%v: fresh %v (HPF %v), reused %v (HPF %v)",
						label, alg, k, lambda, want.Indices, want.HPF, got.Indices, got.HPF)
				}
			}
		}
	}
}
