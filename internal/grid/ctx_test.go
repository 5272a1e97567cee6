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
// context, returning ctx.Err() and no matrix.
func TestAllPairsSpatialCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := geo.Pt(50, 50)
	pts := ctxTestPoints(200, 1)
	g, err := NewSquared(q, pts, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := AllPairsSpatialCtx(ctx, q, pts); !errors.Is(err, context.Canceled) || m != nil {
		t.Errorf("exact: (%v, %v), want (nil, context.Canceled)", m, err)
	}
	for _, tbl := range []*SquaredTable{nil, NewSquaredTable(16)} {
		if m, err := g.ApproxAllPairsCtx(ctx, tbl); !errors.Is(err, context.Canceled) || m != nil {
			t.Errorf("squared: (%v, %v), want (nil, context.Canceled)", m, err)
		}
	}
	if _, _, err := PSSBaselineCtx(ctx, q, pts); !errors.Is(err, context.Canceled) {
		t.Errorf("pss: err = %v, want context.Canceled", err)
	}
}

// TestParallelCancelMidFlight cancels from another goroutine while the
// exact fill runs; the call must return either the whole matrix or an
// error with no partial matrix.
func TestParallelCancelMidFlight(t *testing.T) {
	q := geo.Pt(50, 50)
	pts := ctxTestPoints(2000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	m, err := AllPairsSpatialCtx(ctx, q, pts)
	if err == nil {
		// The race is legal: the fill may finish before the cancel lands.
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
