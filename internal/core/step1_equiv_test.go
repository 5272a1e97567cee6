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

// tiePronePlaces builds an instance designed to surface any float
// divergence between the two Step-1 paths: clusters of places sharing one
// exact location (the den == 0 spatial path and exact score ties), shared
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

// requireMatchesOracle asserts a score set is bit-identical to the
// matrix oracle's: every vector entry, every pair's sC and sS as Pair
// returns them, and every sF entry of the instance's kernel rows must
// share float bits with the oracle's sF triangle.
func requireMatchesOracle(t *testing.T, label string, a *ScoreSet, b *matrixScores) {
	t.Helper()
	n := a.K()
	if len(b.PCS) != n {
		t.Fatalf("%s: sizes differ: %d vs %d", label, n, len(b.PCS))
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
	in, row := newInstance(a), make([]float64, n)
	for i := 0; i < n; i++ {
		in.Row(i, row)
		for j := i + 1; j < n; j++ {
			asc, asp, _ := a.Pair(i, j)
			if math.Float64bits(asc) != math.Float64bits(b.SC.At(i, j)) {
				t.Fatalf("%s: sC(%d,%d) bits differ", label, i, j)
			}
			if math.Float64bits(asp) != math.Float64bits(b.SS.At(i, j)) {
				t.Fatalf("%s: sS(%d,%d) bits differ", label, i, j)
			}
			if math.Float64bits(row[j]) != math.Float64bits(b.SF.At(i, j)) {
				t.Fatalf("%s: SF(%d,%d) bits differ", label, i, j)
			}
		}
	}
}

// mustOracle runs the matrix oracle.
func mustOracle(t *testing.T, q geo.Point, places []Place, opt ScoreOptions) *matrixScores {
	t.Helper()
	m, err := matrixStep1(context.Background(), q, places, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestComputeScoresWorkersBitIdentical: the matrix oracle (msJh and the
// spatial fill, combined) must produce the same scores, bit for bit, as
// the fused pass. Covers random instances, one whose sets are too long
// for the Jaccard table, and the tie-prone instance, both for the exact
// and the squared method.
func TestComputeScoresWorkersBitIdentical(t *testing.T) {
	q := geo.Pt(0, 0)
	rng := rand.New(rand.NewSource(9))
	instances := map[string][]Place{
		"random40":   makePlaces(rng, q, 40, 12, 40, 0.2),
		"random200":  makePlaces(rng, q, 200, 12, 40, 0.2),
		"long60":     makePlaces(rng, q, 60, 90, 200, 0.2),
		"tieprone90": tiePronePlaces(90),
	}
	for name, places := range instances {
		for _, spatial := range []SpatialMethod{SpatialExact, SpatialSquaredGrid} {
			opt := ScoreOptions{Gamma: 0.5, Spatial: spatial}
			requireMatchesOracle(t, name+"/"+spatial.String(), mustScores(t, q, places, opt), mustOracle(t, q, places, opt))
		}
	}
}

// TestSelectionTiesBreakIdenticallySerialParallel: on a tie-heavy
// instance, Step 2 over a score set assembled from the matrix oracle's
// vectors must select exactly what it selects over the fused pass's. A
// set holds no pair scores, so the assembled set reads its pairs as every
// set does; that they equal the oracle's sF triangle, bit for bit, is
// requireMatchesOracle's check, run here first.
func TestSelectionTiesBreakIdenticallySerialParallel(t *testing.T) {
	q := geo.Pt(0, 0)
	places := tiePronePlaces(90)
	opt := ScoreOptions{Gamma: 0.5}
	fused := mustScores(t, q, places, opt)
	m := mustOracle(t, q, places, opt)
	requireMatchesOracle(t, "tieprone90", fused, m)
	matrix := &ScoreSet{Places: places, Q: q, Gamma: opt.Gamma, PCS: m.PCS, PSS: m.PSS, PFS: m.PFS, sp: exactPairs{q: q, places: places}}
	for _, alg := range []Algorithm{AlgABP, AlgABPDiv, AlgIAdU, AlgIAdUDiv} {
		p := Params{K: 9, Lambda: 0.5, Gamma: 0.5}
		a, err := Select(alg, fused, p)
		if err != nil {
			t.Fatalf("%s fused: %v", alg, err)
		}
		b, err := Select(alg, matrix, p)
		if err != nil {
			t.Fatalf("%s matrix: %v", alg, err)
		}
		if !equalInts(a.Indices, b.Indices) {
			t.Errorf("%s: fused selected %v, matrix-scored selected %v", alg, a.Indices, b.Indices)
		}
		if math.Float64bits(a.HPF) != math.Float64bits(b.HPF) {
			t.Errorf("%s: HPF bits differ: %v vs %v", alg, a.HPF, b.HPF)
		}
	}
}

// TestStep1SpanDedupeUnderParallelFallback: each Step-1 stage must be
// recorded exactly once per query, whatever the spatial method. A double
// span would double the stage's latency attribution in traces and the
// /metrics stage histograms.
func TestStep1SpanDedupeUnderParallelFallback(t *testing.T) {
	q := geo.Pt(0, 0)
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		opt  ScoreOptions
	}{
		{"exact/fused", ScoreOptions{Spatial: SpatialExact}},
		{"squared/fused", ScoreOptions{Spatial: SpatialSquaredGrid}},
		{"custom/fused", ScoreOptions{Spatial: SpatialCustom, CustomSpatial: originHook}},
	} {
		places := makePlaces(rng, q, 100, 12, 40, 0.2)
		tr := telemetry.NewTrace()
		ctx := telemetry.WithTrace(context.Background(), tr)
		opt := tc.opt
		opt.Gamma = 0.5
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
