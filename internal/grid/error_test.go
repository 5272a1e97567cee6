package grid

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func samplePts(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return pts
}

// TestSampleApproxErrorExactMatrix pins the baseline: comparing the exact
// matrix against itself yields zero error.
func TestSampleApproxErrorExactMatrix(t *testing.T) {
	q := geo.Pt(50, 50)
	pts := samplePts(40, 1)
	exact := AllPairsSpatial(q, pts)
	es := SampleApproxError(q, pts, exact.At, 64)
	if es.Pairs == 0 {
		t.Fatal("no pairs sampled")
	}
	if es.MeanAbs != 0 || es.MaxAbs != 0 {
		t.Errorf("exact matrix vs itself: mean %v max %v, want 0", es.MeanAbs, es.MaxAbs)
	}
}

// TestSampleApproxErrorGrid checks that the squared-grid approximation
// reports a small but non-zero sampled error, and that sampling is
// deterministic across calls.
func TestSampleApproxErrorGrid(t *testing.T) {
	q := geo.Pt(50, 50)
	pts := samplePts(120, 2)
	g, err := NewSquared(q, pts, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	approx := g.ApproxAllPairs(nil)

	es := SampleApproxError(q, pts, approx.At, 64)
	if es.Pairs != 64 {
		t.Errorf("Pairs = %d, want 64", es.Pairs)
	}
	if es.MeanAbs <= 0 {
		t.Errorf("MeanAbs = %v, want > 0 for a grid approximation", es.MeanAbs)
	}
	if es.MaxAbs < es.MeanAbs {
		t.Errorf("MaxAbs %v < MeanAbs %v", es.MaxAbs, es.MeanAbs)
	}
	// |G| ≈ K keeps the error small (the paper reports ≤5%); allow slack.
	if es.MeanAbs > 0.2 {
		t.Errorf("MeanAbs = %v, implausibly large for |G| ≈ K", es.MeanAbs)
	}
	if again := SampleApproxError(q, pts, approx.At, 64); again != es {
		t.Errorf("sampling not deterministic: %+v vs %+v", es, again)
	}
}

// TestSampleApproxErrorExhaustiveSmall: instances with ≤ samples pairs are
// compared exhaustively.
func TestSampleApproxErrorExhaustive(t *testing.T) {
	q := geo.Pt(50, 50)
	pts := samplePts(8, 3) // 28 pairs < 64 samples
	g, err := NewSquared(q, pts, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	es := SampleApproxError(q, pts, g.ApproxAllPairs(nil).At, 64)
	if es.Pairs != 28 {
		t.Errorf("Pairs = %d, want exhaustive 28", es.Pairs)
	}
}

func TestSampleApproxErrorDegenerate(t *testing.T) {
	q := geo.Pt(0, 0)
	if es := SampleApproxError(q, nil, nil, 64); es.Pairs != 0 {
		t.Errorf("empty input sampled %d pairs", es.Pairs)
	}
	pts := samplePts(10, 4)
	if es := SampleApproxError(q, pts, nil, 64); es.Pairs != 0 {
		t.Errorf("nil pair function sampled %d pairs", es.Pairs)
	}
}
