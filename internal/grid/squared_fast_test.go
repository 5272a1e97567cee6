package grid

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func randomPts(rng *rand.Rand, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return pts
}

// TestSquaredTableDrivenMatchesPerPairLookup pins the occupied-cell table
// optimisation to the semantics it replaced: every matrix entry and every
// pSS value must match, bit for bit, what per-pair SquaredTable.At (or
// unitSS without a table) produces.
func TestSquaredTableDrivenMatchesPerPairLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := geo.Pt(50, 50)
	for _, n := range []int{1, 2, 37, 64, 200} {
		pts := randomPts(rng, n)
		for _, tbl := range []*SquaredTable{nil, NewSquaredTable(16), NewSquaredTable(4)} {
			g, err := NewSquared(q, pts, n)
			if err != nil {
				t.Fatal(err)
			}
			m, err := g.ApproxAllPairsCtx(context.Background(), tbl)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					ci, cj := int(g.cellOf[i]), int(g.cellOf[j])
					var want float64
					switch {
					case ci == cj:
						want = 1
					case tbl != nil:
						want = tbl.At(g.side, ci, cj)
					default:
						want = unitSS(ci, cj, g.side)
					}
					if math.Float64bits(m.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("n=%d: entry (%d,%d) = %v, want %v", n, i, j, m.At(i, j), want)
					}
				}
			}
			// pSS must equal the per-cell aggregation over the same values.
			pss := g.PSS(tbl)
			cellScore := make(map[int32]float64, len(g.occ))
			for a, ci := range g.occ {
				for b := a; b < len(g.occ); b++ {
					cj := g.occ[b]
					var s float64
					if ci == cj {
						s = 1
					} else if tbl != nil {
						s = tbl.At(g.side, int(ci), int(cj))
					} else {
						s = unitSS(int(ci), int(cj), g.side)
					}
					cellScore[ci] += float64(g.counts[cj]) * s
					if ci != cj {
						cellScore[cj] += float64(g.counts[ci]) * s
					}
				}
			}
			for i, c := range g.cellOf {
				want := cellScore[c] - 1
				if math.Float64bits(pss[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d: pSS[%d] = %v, want %v", n, i, pss[i], want)
				}
			}
		}
	}
}

// TestSampleApproxErrorSampleSizeExactUnderSampling: when sampling is not
// exhaustive, exactly samples distinct pairs contribute (drawing without
// replacement), so Pairs is the sample size, not a collision-deflated or
// duplicate-inflated count.
func TestSampleApproxErrorSampleSizeExactUnderSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	q := geo.Pt(50, 50)
	// 12 points → 66 pairs, just above 64 samples: collisions are near
	// certain when drawing with replacement, so a regression here would
	// show up as Pairs < 64 distinct contributions.
	pts := randomPts(rng, 12)
	exact := AllPairsSpatial(q, pts)
	es := SampleApproxError(q, pts, exact.At, 64)
	if es.Pairs != 64 {
		t.Errorf("Pairs = %d, want 64", es.Pairs)
	}
	if es.MaxAbs != 0 || es.MeanAbs != 0 {
		t.Errorf("error against exact matrix = %+v, want zero", es)
	}
	if again := SampleApproxError(q, pts, exact.At, 64); again != es {
		t.Errorf("sampling not deterministic: %+v vs %+v", again, es)
	}
}
