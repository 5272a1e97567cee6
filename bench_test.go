// Root-level benchmarks: one testing.B benchmark (or group) per figure of
// the paper's evaluation, exercising the exact operation the figure
// measures at the paper's default setting (K = 100, |p| = 100, |G| = 100,
// k = 10, λ = γ = 0.5). `go test -bench=. -benchmem` regenerates the
// numbers; cmd/experiments regenerates the full parameter sweeps.
package repro_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textctx"
	"repro/internal/usereval"
)

// fixture is the shared benchmark workload: a DBpedia-like corpus, one
// query, and its retrieved set at the paper defaults.
type fixture struct {
	db     *dataset.Dataset
	query  dataset.Query
	places []core.Place // K = 1000, |p| = 100, sorted by rF
	sqTbl  *grid.SquaredTable
	radTbl *grid.RadialTable
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		cfg := dataset.DBpediaLike(1)
		cfg.Places = 2000
		db, err := dataset.Generate(cfg)
		if err != nil {
			fixErr = err
			return
		}
		qs, err := db.GenQueries(1, 1000, 3)
		if err != nil {
			fixErr = err
			return
		}
		places, err := db.Retrieve(qs[0], 1000)
		if err != nil {
			fixErr = err
			return
		}
		fix = &fixture{
			db:     db,
			query:  qs[0],
			places: db.AdjustContextSizes(places, 100, 9),
			sqTbl:  grid.NewSquaredTable(grid.SideForCells(1000)),
			radTbl: grid.NewRadialTable(),
		}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

func (f *fixture) topK(k int) []core.Place { return f.places[:k] }

func (f *fixture) sets(k int) []textctx.Set {
	out := make([]textctx.Set, k)
	for i := 0; i < k; i++ {
		out[i] = f.places[i].Context
	}
	return out
}

func (f *fixture) locs(k int) []geo.Point {
	out := make([]geo.Point, k)
	for i := 0; i < k; i++ {
		out[i] = f.places[i].Loc
	}
	return out
}

// ---- Figure 7: contextual proportionality (pCS for all of S) ----

func BenchmarkFig7aContextualBaselineK100(b *testing.B) { benchCtx(b, textctx.BaselineEngine{}, 100) }
func BenchmarkFig7aContextualMSJHK100(b *testing.B)     { benchCtx(b, textctx.MSJHEngine{}, 100) }
func BenchmarkFig7aContextualBaselineK1000(b *testing.B) {
	benchCtx(b, textctx.BaselineEngine{}, 1000)
}
func BenchmarkFig7aContextualMSJHK1000(b *testing.B) { benchCtx(b, textctx.MSJHEngine{}, 1000) }

func benchCtx(b *testing.B, e textctx.JaccardEngine, k int) {
	f := getFixture(b)
	sets := f.sets(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AllPairs(sets)
	}
}

func BenchmarkFig7bContextualBaselineP400(b *testing.B) { benchCtxP(b, textctx.BaselineEngine{}, 400) }
func BenchmarkFig7bContextualMSJHP400(b *testing.B)     { benchCtxP(b, textctx.MSJHEngine{}, 400) }

func benchCtxP(b *testing.B, e textctx.JaccardEngine, p int) {
	f := getFixture(b)
	adj := f.db.AdjustContextSizes(f.topK(100), p, 1)
	sets := make([]textctx.Set, len(adj))
	for i := range adj {
		sets[i] = adj[i].Context
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AllPairs(sets)
	}
}

func BenchmarkFig7xMinHashK1000(b *testing.B) {
	benchCtx(b, textctx.MinHashEngine{T: 128, Seed: 1}, 1000)
}

// ---- Figure 8: spatial proportionality (pSS for all of S) ----

func BenchmarkFig8aSpatialBaselineK100(b *testing.B) {
	f := getFixture(b)
	pts := f.locs(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.PSSBaseline(f.query.Loc, pts)
	}
}

func BenchmarkFig8aSpatialSquaredK100(b *testing.B) { benchSquared(b, 100, 100) }
func BenchmarkFig8aSpatialRadialK100(b *testing.B)  { benchRadial(b, 100, 100) }

func BenchmarkFig8bSpatialSquaredG196(b *testing.B) { benchSquared(b, 100, 196) }

func benchSquared(b *testing.B, k, cells int) {
	f := getFixture(b)
	pts := f.locs(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := grid.NewSquared(f.query.Loc, pts, cells)
		if err != nil {
			b.Fatal(err)
		}
		g.PSS(f.sqTbl)
	}
}

func benchRadial(b *testing.B, k, cells int) {
	f := getFixture(b)
	pts := f.locs(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := grid.NewRadial(f.query.Loc, pts, cells)
		if err != nil {
			b.Fatal(err)
		}
		g.PSS(f.radTbl)
	}
}

func BenchmarkFig8dSpatialSquaredGaussian(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := geo.Pt(0, 0)
	pts := dataset.GaussianPoints(rng, q, 200, 0.25)
	tbl := grid.NewSquaredTable(grid.SideForCells(200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := grid.NewSquared(q, pts, 200)
		if err != nil {
			b.Fatal(err)
		}
		g.PSS(tbl)
	}
}

// ---- Figure 9: approximation error measurement pipeline ----

func BenchmarkFig9ErrorMeasurement(b *testing.B) {
	f := getFixture(b)
	pts := f.locs(100)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact, _ := grid.PSSBaseline(f.query.Loc, pts)
		g, err := grid.NewSquared(f.query.Loc, pts, 100)
		if err != nil {
			b.Fatal(err)
		}
		sink += grid.RelativeError(g.PSS(f.sqTbl), exact)
	}
	_ = sink
}

// ---- Figure 10: full pipeline (Step 1 + Step 2) ----

func BenchmarkFig10PipelineIAdUOptimised(b *testing.B) { benchPipeline(b, core.IAdU, true) }
func BenchmarkFig10PipelineIAdUBaseline(b *testing.B)  { benchPipeline(b, core.IAdU, false) }
func BenchmarkFig10PipelineABPOptimised(b *testing.B)  { benchPipeline(b, core.ABP, true) }
func BenchmarkFig10PipelineABPBaseline(b *testing.B)   { benchPipeline(b, core.ABP, false) }

// benchPipeline times Figure 10's stack as internal/bench's pipelineTimes
// does: the all-pairs engine (msJh when optimised, the baseline otherwise),
// the spatial method (the squared grid or exact pSS) and the greedy, which
// runs on the ComputeScores set of the same spatial method.
func benchPipeline(b *testing.B, alg func(*core.ScoreSet, core.Params) (core.Selection, error), optimised bool) {
	f := getFixture(b)
	places := f.topK(100)
	sets, pts := f.sets(100), f.locs(100)
	var engine textctx.JaccardEngine = textctx.BaselineEngine{}
	opt := core.ScoreOptions{Gamma: 0.5}
	if optimised {
		engine = textctx.MSJHEngine{}
		opt.Spatial, opt.SquaredTable = core.SpatialSquaredGrid, f.sqTbl
	}
	ss, err := core.ComputeScores(f.query.Loc, places, opt)
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{K: 10, Lambda: 0.5, Gamma: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.AllPairs(sets)
		if optimised {
			g, err := grid.NewSquared(f.query.Loc, pts, len(pts))
			if err != nil {
				b.Fatal(err)
			}
			g.PSS(f.sqTbl)
			g.ApproxAllPairs(f.sqTbl)
		} else {
			grid.PSSBaseline(f.query.Loc, pts)
		}
		if _, err := alg(ss, params); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 11: HPF evaluation ----

func BenchmarkFig11EvaluateHPF(b *testing.B) {
	f := getFixture(b)
	ss, err := core.ComputeScores(f.query.Loc, f.topK(100), core.ScoreOptions{Gamma: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	sel, err := core.ABP(ss, core.Params{K: 10, Lambda: 0.5, Gamma: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Evaluate(sel.Indices, 0.5)
	}
}

// ---- Figure 12: simulated user study ----

func BenchmarkFig12aPanelScore(b *testing.B) {
	ss, err := usereval.SyntheticStudySet(1)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := core.ABP(ss, core.Params{K: 10, Lambda: 0.5, Gamma: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	panel := usereval.NewPanel(10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range usereval.Criteria {
			panel.Score(ss, sel.Indices, c)
		}
	}
}

// ---- Ablation: naive inverted lists vs msJh ----

func BenchmarkAblationNaiveInvertedK1000(b *testing.B) {
	benchCtx(b, textctx.NaiveInvertedEngine{}, 1000)
}
