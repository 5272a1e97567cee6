package grid

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// TestParallelSpatialIdentical: the exact all-pairs fill must reproduce
// the per-pair Ptolemy similarity bit for bit, and its row sums must be
// the pSS vector PSSBaselineCtx reports.
func TestParallelSpatialIdentical(t *testing.T) {
	q := geo.Pt(0.3, 0.7)
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 10, 63, 64, 200} {
		pts := uniformPoints(rng, q, n, 3)
		pts = append(pts, q, q) // the den == 0 path
		pss, _, err := PSSBaselineCtx(context.Background(), q, pts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AllPairsSpatialCtx(context.Background(), q, pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				want := geo.PtolemySimilarity(q, pts[i], pts[j])
				if pts[i] == q && pts[j] == q {
					want = 1 // both points coincide with q
				}
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
					t.Fatalf("n=%d: sS(%d,%d) = %v, want %v", n, i, j, got.At(i, j), want)
				}
			}
		}
		for i, v := range got.RowSums() {
			if math.Float64bits(v) != math.Float64bits(pss[i]) {
				t.Fatalf("n=%d: pSS[%d] = %v, want %v", n, i, v, pss[i])
			}
		}
	}
}

func BenchmarkPSSBaselineK2000(b *testing.B) {
	q := geo.Pt(0, 0)
	rng := rand.New(rand.NewSource(1))
	pts := uniformPoints(rng, q, 2000, 1)
	for i := 0; i < b.N; i++ {
		AllPairsSpatial(q, pts).RowSums()
	}
}
