package core

import (
	"context"
	"fmt"

	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/pairs"
	"repro/internal/telemetry"
	"repro/internal/textctx"
)

// explainErrSamples is the number of random place pairs on which the grid
// approximation error is estimated when an explain collector is attached
// (exact sS recomputed and compared against the approximate matrix).
const explainErrSamples = 64

// SpatialMethod selects how Step 1 computes the spatial similarities.
type SpatialMethod int

const (
	// SpatialExact computes sS for every pair directly (the baseline of
	// Section 7, ~20 operations per pair).
	SpatialExact SpatialMethod = iota
	// SpatialSquaredGrid approximates points by squared-grid cell centres
	// (Section 7.1.1) with precomputed cell-centre similarities.
	SpatialSquaredGrid
	// SpatialRadialGrid approximates points by radial-grid sector
	// representatives (Section 7.1.2).
	SpatialRadialGrid
	// SpatialCustom delegates to ScoreOptions.CustomSpatial — e.g. a
	// road-network scorer (the paper's future-work extension).
	SpatialCustom
)

// String implements fmt.Stringer.
func (m SpatialMethod) String() string {
	switch m {
	case SpatialExact:
		return "exact"
	case SpatialSquaredGrid:
		return "squared-grid"
	case SpatialRadialGrid:
		return "radial-grid"
	case SpatialCustom:
		return "custom"
	default:
		return fmt.Sprintf("SpatialMethod(%d)", int(m))
	}
}

// ScoreOptions configures Step 1 of the framework.
type ScoreOptions struct {
	// Contextual is the all-pairs Jaccard engine; nil means msJh, the
	// paper's recommended choice.
	Contextual textctx.JaccardEngine
	// Spatial selects exact or grid-based spatial similarity.
	Spatial SpatialMethod
	// GridCells is |G| (or |R| for the radial grid); 0 means ≈ K, the
	// paper's recommended setting.
	GridCells int
	// SquaredTable optionally supplies precomputed cell-centre scores.
	SquaredTable *grid.SquaredTable
	// RadialTable optionally supplies precomputed sector scores.
	RadialTable *grid.RadialTable
	// Gamma is the weight γ of spatial vs contextual similarity (Eq. 8,
	// 13); the paper's default is 0.5.
	Gamma float64
	// CustomSpatial supplies the pairwise spatial similarity matrix when
	// Spatial is SpatialCustom. It must return an n×n matrix with values
	// in [0, 1]; pSS is derived from its row sums. Used to swap Euclidean
	// Ptolemy similarity for alternatives such as road-network distance.
	CustomSpatial func(q geo.Point, places []Place) (*pairs.Matrix, error)
	// Workers fans the quadratic Step-1 fills (contextual all-pairs when
	// Contextual is nil, the exact spatial all-pairs, and the squared-grid
	// matrix fill) out over this many goroutines through pairs.Fill. ≤ 1
	// keeps every phase sequential; every worker count fills the same
	// matrices bit for bit, so Workers never changes any score. A non-nil
	// Contextual engine is used as configured (e.g. MSJHEngine.Workers).
	Workers int
}

// ScoreSet is the Step-1 output: every per-place and pairwise score the
// greedy algorithms need, computed once and reused (Section 5).
type ScoreSet struct {
	// Places is the retrieved set S in scoring order.
	Places []Place
	// Q is the query location.
	Q geo.Point
	// Gamma is the γ the combined scores were built with.
	Gamma float64
	// PCS[i] is pCS(p_i) (Eq. 3); PSS[i] is pSS(p_i) (Eq. 6).
	PCS, PSS []float64
	// PFS[i] is pFS(p_i) = (1−γ)·pCS + γ·pSS (Eq. 11).
	PFS []float64
	// SC and SS are the pairwise contextual and spatial similarity
	// caches; SF is the γ-weighted combination (Eq. 13).
	SC, SS, SF *pairs.Matrix
}

// K returns |S|, the number of scored places.
func (ss *ScoreSet) K() int { return len(ss.Places) }

// ComputeScores runs Step 1 of the framework: it computes the pairwise
// contextual and spatial similarities of all places with the configured
// engines, caches them, and derives the pCS, pSS and pFS vectors.
func ComputeScores(q geo.Point, places []Place, opt ScoreOptions) (*ScoreSet, error) {
	return ComputeScoresCtx(context.Background(), q, places, opt)
}

// ComputeScoresCtx is ComputeScores with cooperative cancellation: the
// quadratic all-pairs phases poll ctx (directly when the configured
// engines support it, at stage boundaries otherwise) and abandon the
// computation as soon as ctx terminates, returning an error matching
// ErrCancelled or ErrDeadline. No goroutines outlive the call.
func ComputeScoresCtx(ctx context.Context, q geo.Point, places []Place, opt ScoreOptions) (*ScoreSet, error) {
	if err := checkpoint(ctx, "scores:start"); err != nil {
		return nil, err
	}
	if !q.Valid() {
		return nil, fmt.Errorf("core: invalid query location %v", q)
	}
	for i := range places {
		if err := places[i].Validate(); err != nil {
			return nil, fmt.Errorf("place %d: %w", i, err)
		}
	}
	if opt.Gamma < 0 || opt.Gamma > 1 || opt.Gamma != opt.Gamma {
		return nil, fmt.Errorf("core: γ = %v outside [0, 1]", opt.Gamma)
	}
	engine := opt.Contextual
	if engine == nil {
		engine = textctx.MSJHEngine{Workers: opt.Workers}
	}

	sets := make([]textctx.Set, len(places))
	pts := make([]geo.Point, len(places))
	for i := range places {
		sets[i] = places[i].Context
		pts[i] = places[i].Loc
	}

	// Each Step-1 stage is spanned here, at its boundary, and nowhere
	// below: the engines and grid fills record no spans of their own, so
	// every stage is counted exactly once whatever engine, spatial method
	// or worker count runs it.
	var sc *textctx.PairScores
	var err error
	endPCS := telemetry.StartSpan(ctx, telemetry.StagePCS)
	if ce, ok := engine.(textctx.ContextEngine); ok {
		sc, err = ce.AllPairsCtx(ctx, sets)
	} else {
		sc = engine.AllPairs(sets)
	}
	endPCS()
	if err != nil {
		return nil, stageErr(ctx, err)
	}
	if err := checkpoint(ctx, "scores:contextual"); err != nil {
		return nil, err
	}

	endPSS := telemetry.StartSpan(ctx, telemetry.StagePSS)
	sp, pss, gs, err := spatialScores(ctx, q, places, pts, opt)
	endPSS()
	if err != nil {
		return nil, stageErr(ctx, err)
	}
	if ec := explain.FromContext(ctx); ec != nil {
		if gs.Kind == "squared" || gs.Kind == "radial" {
			sampleGridError(&gs, q, pts, sp)
		}
		ec.SetGrid(gs)
	}
	if err := checkpoint(ctx, "scores:spatial"); err != nil {
		return nil, err
	}

	pcs := sc.RowSums()
	pfs := make([]float64, len(places))
	for i := range pfs {
		pfs[i] = (1-opt.Gamma)*pcs[i] + opt.Gamma*pss[i]
	}
	return &ScoreSet{
		Places: places,
		Q:      q,
		Gamma:  opt.Gamma,
		PCS:    pcs,
		PSS:    pss,
		PFS:    pfs,
		SC:     sc,
		SS:     sp,
		SF:     pairs.Combine(sc, sp, 1-opt.Gamma, opt.Gamma),
	}, nil
}

// stageErr maps a Step-1 stage failure onto the package's typed
// cancellation errors when ctx has terminated, and passes it through
// otherwise.
func stageErr(ctx context.Context, err error) error {
	if ce := CtxErr(ctx); ce != nil {
		return ce
	}
	return err
}

// spatialScores computes the pairwise spatial similarity matrix and the
// pSS vector with the configured method, plus the explain grid statistics
// that cost nothing to collect (the sampled approximation error is left to
// the caller).
func spatialScores(ctx context.Context, q geo.Point, places []Place, pts []geo.Point, opt ScoreOptions) (sp *pairs.Matrix, pss []float64, gs explain.GridStats, err error) {
	gs.Places = len(pts)
	cells := opt.GridCells
	if cells <= 0 {
		cells = len(places) // the paper's |G| ≈ K rule
	}
	switch opt.Spatial {
	case SpatialExact:
		// Nothing is approximated; the method is still recorded so explain
		// output names the spatial path taken.
		gs.Kind = "exact"
		if sp, err = grid.AllPairsSpatialCtx(ctx, q, pts, opt.Workers); err != nil {
			return nil, nil, gs, err
		}
		return sp, sp.RowSums(), gs, nil
	case SpatialSquaredGrid:
		g, err := grid.NewSquared(q, pts, cells)
		if err != nil {
			return nil, nil, gs, err
		}
		gs.Kind, gs.Cells, gs.OccupiedCells = "squared", g.Cells(), g.OccupiedCells()
		pss = g.PSS(opt.SquaredTable)
		sp, err = g.ApproxAllPairsCtx(ctx, opt.SquaredTable, opt.Workers)
		return sp, pss, gs, err
	case SpatialRadialGrid:
		g, err := grid.NewRadial(q, pts, cells)
		if err != nil {
			return nil, nil, gs, err
		}
		gs.Kind, gs.Cells, gs.OccupiedCells = "radial", g.Sectors(), g.OccupiedSectors()
		pss = g.PSS(opt.RadialTable)
		return g.ApproxAllPairs(opt.RadialTable), pss, gs, nil
	case SpatialCustom:
		if opt.CustomSpatial == nil {
			return nil, nil, gs, fmt.Errorf("core: SpatialCustom requires CustomSpatial")
		}
		gs.Kind = "custom"
		if sp, err = opt.CustomSpatial(q, places); err != nil {
			return nil, nil, gs, err
		}
		if sp == nil || sp.N() != len(places) {
			return nil, nil, gs, fmt.Errorf("core: CustomSpatial returned a matrix of wrong size")
		}
		return sp, sp.RowSums(), gs, nil
	default:
		return nil, nil, gs, fmt.Errorf("core: unknown spatial method %v", opt.Spatial)
	}
}

// sampleGridError completes the explain statistics of an approximating
// spatial method with its places per cell and the sampled approximation
// error (exact sS recomputed on explainErrSamples random pairs). Call only
// under an explain collector: the sampling costs ~64 Ptolemy evaluations.
func sampleGridError(gs *explain.GridStats, q geo.Point, pts []geo.Point, approx *pairs.Matrix) {
	if gs.OccupiedCells > 0 {
		gs.PlacesPerCell = float64(len(pts)) / float64(gs.OccupiedCells)
	}
	es := grid.SampleApproxError(q, pts, approx, explainErrSamples)
	gs.SampledPairs, gs.MeanAbsError, gs.MaxAbsError = es.Pairs, es.MeanAbs, es.MaxAbs
}

// SF returns the combined similarity sF(p_i, p_j) (Eq. 13).
func (ss *ScoreSet) sf(i, j int) float64 { return ss.SF.At(i, j) }

// PairHPF returns the pairwise holistic score HPF(p_i, p_j) of Eq. 15 for
// result size k and weight λ. It requires k ≥ 2 (the formula divides by
// k−1); selection of a single place degenerates to ranking by rF.
func (ss *ScoreSet) PairHPF(i, j, k int, lambda float64) float64 {
	K := len(ss.Places)
	kf := float64(k - 1)
	rel := (1 - lambda) * float64(K-k) * (ss.Places[i].Rel + ss.Places[j].Rel) / kf
	prop := lambda * ((ss.PFS[i]+ss.PFS[j])/kf - 2*ss.sf(i, j))
	return rel + prop
}

// PlaceHPF returns the per-place holistic score HPF(p_i) of Eq. 9 w.r.t.
// the (partial) result set R, using the identity
// HPF(p_i) = (1−λ)(K−k)·rF(p_i) + λ·(pFS(p_i) − pFR(p_i)).
func (ss *ScoreSet) PlaceHPF(i int, r []int, k int, lambda float64) float64 {
	K := len(ss.Places)
	var pfr float64
	for _, j := range r {
		if j != i {
			pfr += ss.sf(i, j)
		}
	}
	return (1-lambda)*float64(K-k)*ss.Places[i].Rel + lambda*(ss.PFS[i]-pfr)
}

// Evaluate computes HPF(R) (Eq. 10) for the candidate subset r, together
// with the Figure-11 breakdown. The subset's size is used as k.
func (ss *ScoreSet) Evaluate(r []int, lambda float64) Breakdown {
	K := len(ss.Places)
	k := len(r)
	var b Breakdown
	for _, i := range r {
		b.Rel += ss.Places[i].Rel
		var scr, ssr float64
		for _, j := range r {
			if j != i {
				scr += ss.SC.At(i, j)
				ssr += ss.SS.At(i, j)
			}
		}
		b.PC += ss.PCS[i] - scr // pC(p_i) = pCS − pCR (Eq. 2)
		b.PS += ss.PSS[i] - ssr // pS(p_i) = pSS − pSR (Eq. 5)
	}
	b.Rel *= float64(K - k)
	b.Total = (1-lambda)*b.Rel + lambda*((1-ss.Gamma)*b.PC+ss.Gamma*b.PS)
	return b
}

// EvaluatePairwise computes HPF(R) through the pairwise decomposition
// Σ_{p_i≠p_j∈R} HPF(p_i, p_j); by construction of Eq. 15 it equals
// Evaluate(r).Total for |r| ≥ 2. Exposed for testing the identity.
func (ss *ScoreSet) EvaluatePairwise(r []int, lambda float64) float64 {
	var total float64
	for a := 0; a < len(r); a++ {
		for b := a + 1; b < len(r); b++ {
			total += ss.PairHPF(r[a], r[b], len(r), lambda)
		}
	}
	return total
}
