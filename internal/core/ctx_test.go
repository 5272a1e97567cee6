package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/textctx"
)

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	t.Cleanup(cancel)
	<-ctx.Done()
	return ctx
}

func TestComputeScoresCtxCancelled(t *testing.T) {
	q := geo.Pt(0, 0)
	places := makePlaces(rand.New(rand.NewSource(1)), q, 64, 12, 40, 0.2)
	for _, spatial := range []SpatialMethod{SpatialExact, SpatialSquaredGrid, SpatialRadialGrid} {
		_, err := ComputeScoresCtx(cancelledCtx(), q, places, ScoreOptions{Gamma: 0.5, Spatial: spatial})
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("%v: err = %v, want ErrCancelled", spatial, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want to match context.Canceled too", spatial, err)
		}
	}
}

func TestComputeScoresCtxDeadline(t *testing.T) {
	q := geo.Pt(0, 0)
	places := makePlaces(rand.New(rand.NewSource(2)), q, 64, 12, 40, 0.2)
	_, err := ComputeScoresCtx(expiredCtx(t), q, places, ScoreOptions{Gamma: 0.5})
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to match context.DeadlineExceeded too", err)
	}
}

func TestComputeScoresCtxLiveContextSucceeds(t *testing.T) {
	q := geo.Pt(0, 0)
	places := makePlaces(rand.New(rand.NewSource(3)), q, 64, 12, 40, 0.2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ss, err := ComputeScoresCtx(ctx, q, places, ScoreOptions{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ComputeScores(q, places, ScoreOptions{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss.PFS {
		if ss.PFS[i] != ref.PFS[i] {
			t.Fatalf("PFS[%d] = %v, want %v (ctx variant must match)", i, ss.PFS[i], ref.PFS[i])
		}
	}
}

func TestSelectCtxCancelledAllAlgorithms(t *testing.T) {
	ss := defaultScoreSet(t, 40, 4)
	p := Params{K: 5, Lambda: 0.5, Gamma: 0.5}
	for _, alg := range Algorithms() {
		_, err := SelectCtx(cancelledCtx(), alg, ss, p)
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("%s: err = %v, want ErrCancelled", alg, err)
		}
	}
}

func TestSelectCtxDeadlineAllAlgorithms(t *testing.T) {
	ss := defaultScoreSet(t, 40, 5)
	p := Params{K: 5, Lambda: 0.5, Gamma: 0.5}
	for _, alg := range Algorithms() {
		_, err := SelectCtx(expiredCtx(t), alg, ss, p)
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("%s: err = %v, want ErrDeadline", alg, err)
		}
	}
}

func TestSelectCtxLiveContextMatchesSelect(t *testing.T) {
	ss := defaultScoreSet(t, 40, 6)
	p := Params{K: 5, Lambda: 0.5, Gamma: 0.5}
	for _, alg := range Algorithms() {
		want, err := Select(alg, ss, p)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		got, err := SelectCtx(context.Background(), alg, ss, p)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if got.HPF != want.HPF {
			t.Errorf("%s: HPF = %v, want %v", alg, got.HPF, want.HPF)
		}
	}
}

// TestCancellationObservedMidScoring injects a fault hook that cancels the
// context at the first scoring checkpoint: the pipeline must abandon work
// at that same checkpoint instead of completing Step 1.
func TestCancellationObservedMidScoring(t *testing.T) {
	q := geo.Pt(0, 0)
	places := makePlaces(rand.New(rand.NewSource(7)), q, 64, 12, 40, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := SetCheckpointHook(func(stage string) {
		if stage == "scores:contextual" {
			cancel()
		}
	})
	defer restore()
	_, err := ComputeScoresCtx(ctx, q, places, ScoreOptions{Gamma: 0.5})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled observed at the cancelling checkpoint", err)
	}
}

// TestCancellationObservedMidSelection cancels inside the greedy loop of
// every registered algorithm and requires the loop to stop there.
func TestCancellationObservedMidSelection(t *testing.T) {
	ss := defaultScoreSet(t, 40, 8)
	p := Params{K: 5, Lambda: 0.5, Gamma: 0.5}
	for _, alg := range Algorithms() {
		ctx, cancel := context.WithCancel(context.Background())
		restore := SetCheckpointHook(func(stage string) {
			if len(stage) > 7 && stage[:7] == "select:" {
				cancel()
			}
		})
		_, err := SelectCtx(ctx, alg, ss, p)
		restore()
		cancel()
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("%s: err = %v, want ErrCancelled from mid-selection cancel", alg, err)
		}
	}
}

// TestCheckpointHookStages records the stages the pipeline passes through,
// pinning the fault-injection surface the serving tests rely on.
func TestCheckpointHookStages(t *testing.T) {
	q := geo.Pt(0, 0)
	places := makePlaces(rand.New(rand.NewSource(9)), q, 48, 12, 40, 0.2)
	seen := map[string]bool{}
	restore := SetCheckpointHook(func(stage string) { seen[stage] = true })
	defer restore()
	ss, err := ComputeScoresCtx(context.Background(), q, places, ScoreOptions{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectCtx(context.Background(), AlgABP, ss, Params{K: 5, Lambda: 0.5, Gamma: 0.5}); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"scores:start", "scores:contextual", "scores:spatial", "select:abp"} {
		if !seen[stage] {
			t.Errorf("checkpoint stage %q never fired (saw %v)", stage, seen)
		}
	}
}

func TestCtxErrNilAndLive(t *testing.T) {
	if err := CtxErr(nil); err != nil {
		t.Errorf("CtxErr(nil) = %v", err)
	}
	if err := CtxErr(context.Background()); err != nil {
		t.Errorf("CtxErr(background) = %v", err)
	}
}

// TestContextEngineCancellation pins that msJh, the engine the fused
// pass is checked against, supports in-loop cancellation.
func TestContextEngineCancellation(t *testing.T) {
	sets := make([]textctx.Set, 100)
	for i := range sets {
		sets[i] = textctx.NewSet(textctx.ItemID(i % 7))
	}
	if _, err := (textctx.MSJHEngine{}).AllPairsCtx(cancelledCtx(), sets); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
