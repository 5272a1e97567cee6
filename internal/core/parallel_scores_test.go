package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/telemetry"
	"repro/internal/textctx"
)

// tiePronePlaces builds an instance designed to surface any serial-vs-
// parallel float divergence: clusters of places sharing one exact
// location (the den == 0 spatial path and exact score ties), shared
// contexts (contextual ties), and shared relevance values.
func tiePronePlaces(n int) []Place {
	ctxA := textctx.NewSet(1, 2, 3)
	ctxB := textctx.NewSet(2, 3, 4, 5)
	places := make([]Place, n)
	for i := range places {
		p := Place{ID: word(i), Rel: 0.5}
		switch i % 3 {
		case 0:
			p.Loc, p.Context = geo.Pt(0, 0), ctxA // coincides with q
		case 1:
			p.Loc, p.Context = geo.Pt(2, 1), ctxA
		default:
			p.Loc, p.Context, p.Rel = geo.Pt(2, 1), ctxB, 0.9
		}
		places[i] = p
	}
	return places
}

// requireSameScoreSet asserts two score sets are bit-identical: every
// vector entry, every pair's sC and sS as Pair returns them, and every
// entry of the sF triangle must share float bits.
func requireSameScoreSet(t *testing.T, label string, a, b *ScoreSet) {
	t.Helper()
	n := a.K()
	if b.K() != n {
		t.Fatalf("%s: sizes differ: %d vs %d", label, n, b.K())
	}
	vecs := [][2][]float64{{a.PCS, b.PCS}, {a.PSS, b.PSS}, {a.PFS, b.PFS}}
	names := []string{"PCS", "PSS", "PFS"}
	for v, pair := range vecs {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s: %s[%d] bits differ: %v vs %v", label, names[v], i, pair[0][i], pair[1][i])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			asc, asp, _ := a.Pair(i, j)
			bsc, bsp, _ := b.Pair(i, j)
			if math.Float64bits(asc) != math.Float64bits(bsc) {
				t.Fatalf("%s: sC(%d,%d) bits differ", label, i, j)
			}
			if math.Float64bits(asp) != math.Float64bits(bsp) {
				t.Fatalf("%s: sS(%d,%d) bits differ", label, i, j)
			}
			if math.Float64bits(a.SF.At(i, j)) != math.Float64bits(b.SF.At(i, j)) {
				t.Fatalf("%s: SF(%d,%d) bits differ", label, i, j)
			}
		}
	}
}

// TestComputeScoresWorkersBitIdentical: the matrix engines filled with
// Workers > 1 (msJh's comparison step and the spatial fill fanned out)
// must produce the same score set, bit for bit, as the sequential fused
// pass of the default engine — the invariant that lets the engine share
// cache keys and memoised selections across worker settings. Covers
// random instances and the tie-prone instance, both spatial methods, and
// sizes straddling the parallel fallback thresholds.
func TestComputeScoresWorkersBitIdentical(t *testing.T) {
	q := geo.Pt(0, 0)
	rng := rand.New(rand.NewSource(9))
	instances := map[string][]Place{
		"random40":   makePlaces(rng, q, 40, 12, 40, 0.2),
		"random200":  makePlaces(rng, q, 200, 12, 40, 0.2),
		"tieprone90": tiePronePlaces(90),
	}
	for name, places := range instances {
		for _, spatial := range []SpatialMethod{SpatialExact, SpatialSquaredGrid} {
			serial := mustScores(t, q, places, ScoreOptions{Gamma: 0.5, Spatial: spatial})
			for _, workers := range []int{1, 2, 4, 7} {
				par := mustScores(t, q, places, ScoreOptions{Gamma: 0.5, Spatial: spatial,
					Contextual: textctx.MSJHEngine{Workers: workers}, Workers: workers})
				requireSameScoreSet(t, name+"/"+spatial.String(), serial, par)
			}
		}
	}
}

// TestSelectionTiesBreakIdenticallySerialParallel: the float-bit
// canonicalisation property behind the engine's worker-agnostic selection
// memo — on a tie-heavy instance, Step 2 over a score set the matrix
// engines filled in parallel must select exactly what it selects over
// the fused pass's.
func TestSelectionTiesBreakIdenticallySerialParallel(t *testing.T) {
	q := geo.Pt(0, 0)
	places := tiePronePlaces(90)
	serial := mustScores(t, q, places, ScoreOptions{Gamma: 0.5})
	par := mustScores(t, q, places, ScoreOptions{Gamma: 0.5, Contextual: textctx.MSJHEngine{Workers: 4}, Workers: 4})
	for _, alg := range []Algorithm{AlgABP, AlgABPRescan, AlgIAdU, AlgIAdUHeap} {
		p := Params{K: 9, Lambda: 0.5, Gamma: 0.5}
		a, err := Select(alg, serial, p)
		if err != nil {
			t.Fatalf("%s serial: %v", alg, err)
		}
		b, err := Select(alg, par, p)
		if err != nil {
			t.Fatalf("%s parallel: %v", alg, err)
		}
		if !equalInts(a.Indices, b.Indices) {
			t.Errorf("%s: serial selected %v, parallel-scored selected %v", alg, a.Indices, b.Indices)
		}
		if math.Float64bits(a.HPF) != math.Float64bits(b.HPF) {
			t.Errorf("%s: HPF bits differ: %v vs %v", alg, a.HPF, b.HPF)
		}
	}
}

// TestStep1SpanDedupeUnderParallelFallback: each Step-1 stage must be
// recorded exactly once per query, whether the parallel variant runs its
// fan-out or falls back to the sequential implementation under small
// inputs. A double span would double the stage's latency attribution in
// traces and the /metrics stage histograms.
func TestStep1SpanDedupeUnderParallelFallback(t *testing.T) {
	q := geo.Pt(0, 0)
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name    string
		n       int // 40 < the grid fallback threshold 64 ≤ 100
		workers int
		spatial SpatialMethod
	}{
		{"exact/fallback", 40, 4, SpatialExact},
		{"exact/parallel", 100, 4, SpatialExact},
		{"exact/serial", 100, 0, SpatialExact},
		{"squared/fallback", 40, 4, SpatialSquaredGrid},
		{"squared/parallel", 100, 4, SpatialSquaredGrid},
		{"squared/serial", 100, 0, SpatialSquaredGrid},
	} {
		places := makePlaces(rng, q, tc.n, 12, 40, 0.2)
		tr := telemetry.NewTrace()
		ctx := telemetry.WithTrace(context.Background(), tr)
		opt := ScoreOptions{Gamma: 0.5, Spatial: tc.spatial, Workers: tc.workers}
		if _, err := ComputeScoresCtx(ctx, q, places, opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		counts := map[string]int{}
		for _, sp := range tr.Spans() {
			counts[sp.Stage]++
		}
		if counts[telemetry.StagePSS] != 1 {
			t.Errorf("%s: %d pSS spans, want exactly 1", tc.name, counts[telemetry.StagePSS])
		}
		if counts[telemetry.StagePCS] != 1 {
			t.Errorf("%s: %d pCS spans, want exactly 1", tc.name, counts[telemetry.StagePCS])
		}
	}
}
