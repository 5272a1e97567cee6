package grid

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func ctxTestPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return pts
}

// TestAllPairsSpatialCtxCancelled: every cancellable fill rejects a dead
// context at every worker count, returning ctx.Err() and no matrix.
func TestAllPairsSpatialCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := geo.Pt(50, 50)
	pts := ctxTestPoints(200, 1)
	g, err := NewSquared(q, pts, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if m, err := AllPairsSpatialCtx(ctx, q, pts, workers); !errors.Is(err, context.Canceled) || m != nil {
			t.Errorf("exact, workers=%d: (%v, %v), want (nil, context.Canceled)", workers, m, err)
		}
		for _, tbl := range []*SquaredTable{nil, NewSquaredTable(16)} {
			if m, err := g.ApproxAllPairsCtx(ctx, tbl, workers); !errors.Is(err, context.Canceled) || m != nil {
				t.Errorf("squared, workers=%d: (%v, %v), want (nil, context.Canceled)", workers, m, err)
			}
		}
	}
	if _, _, err := PSSBaselineCtx(ctx, q, pts); !errors.Is(err, context.Canceled) {
		t.Errorf("pss: err = %v, want context.Canceled", err)
	}
}

// TestParallelCancelMidFlight cancels while workers are running; the call
// must return an error (not a partial matrix) and leave no goroutine
// stuck — the driver's join would deadlock the test otherwise.
func TestParallelCancelMidFlight(t *testing.T) {
	q := geo.Pt(50, 50)
	pts := ctxTestPoints(2000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	m, err := AllPairsSpatialCtx(ctx, q, pts, 8)
	if err == nil {
		// The race is legal: workers may finish before the cancel lands.
		if m == nil {
			t.Fatal("nil matrix without error")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Error("partial matrix returned alongside error")
	}
}
