package core

import (
	"context"
	"fmt"
	"unsafe"

	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/pairs"
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
	// SpatialCustom takes sS from ScoreOptions.CustomSpatial — e.g. a
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
	// in [0, 1]; Step 1 reads sS from it row by row and sums pSS from its
	// entries, and the score set keeps it to recompute pairs from. Used to
	// swap Euclidean Ptolemy similarity for alternatives such as
	// road-network distance.
	CustomSpatial func(q geo.Point, places []Place) (*pairs.Matrix, error)
}

// ScoreSet is the Step-1 output (Section 5): the per-place scores pCS,
// pSS and pFS, computed once and reused by every selection on the set.
//
// A set holds no pair score. It keeps O(K) state instead — its spatial
// method's pair source, which for the grids holds one cell or sector
// index per place — from which Pair recomputes any single pair with the
// functions Step 1 sums them with: the same bits every time. A set of the
// custom spatial method keeps the hook's matrix. Step 2 reads pairs
// through a per-selection instance (see instance), so one set serves
// concurrent selections.
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

	// sp is the spatial method's pair source: what Pair and the instance
	// read sS from.
	sp spatialPairs
	// customLoose records that the custom method's matrix has an entry
	// outside [0, 1], so that sF may leave it too (ABP's rank join then
	// scores every pair).
	customLoose bool
}

// K returns |S|, the number of scored places.
func (ss *ScoreSet) K() int { return len(ss.Places) }

// ComputeScores runs Step 1 of the framework: it sums the pairwise
// contextual (msJh's exact Jaccard) and spatial (the configured method)
// similarities of all places into the pCS, pSS and pFS vectors.
func ComputeScores(q geo.Point, places []Place, opt ScoreOptions) (*ScoreSet, error) {
	return ComputeScoresCtx(context.Background(), q, places, opt)
}

// ComputeScoresCtx is ComputeScores with cooperative cancellation: the
// quadratic row pass polls ctx and abandons the computation as soon as ctx
// terminates, returning an error matching ErrCancelled or ErrDeadline.
//
// Step 1 is one sequential row pass (fusedStep1), whatever the spatial
// method, that stores no pair score; Pair recomputes sC, sS and sF on
// demand. Each Step-1 stage is spanned in fusedStep1, at its boundary, and
// nowhere below: the grid fills record no spans of their own, so every
// stage is counted exactly once whatever spatial method runs it.
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
	ss := &ScoreSet{Places: places, Q: q, Gamma: opt.Gamma}
	if err := ss.fusedStep1(ctx, opt); err != nil {
		return nil, stageErr(ctx, err)
	}
	ss.PFS = make([]float64, len(places))
	for i := range ss.PFS {
		ss.PFS[i] = pairs.Blend(1-opt.Gamma, ss.PCS[i], opt.Gamma, ss.PSS[i])
	}
	return ss, nil
}

// Bytes returns the memory ss holds of its own: the Places slice (the
// places' IDs and context sets belong to the corpus and are not counted),
// the per-place vectors and the spatial pair source (grid indices, or a
// custom method's matrix).
func (ss *ScoreSet) Bytes() int {
	return len(ss.Places)*int(unsafe.Sizeof(Place{})) +
		8*(len(ss.PCS)+len(ss.PSS)+len(ss.PFS)) + ss.sp.Bytes()
}

// Pair returns sC, sS and sF of the places i ≠ j, recomputed with the
// functions Step 1 sums them with — Jaccard (msJh's, the baseline's and
// the fused pass's expression, +0 for disjoint sets), the exact Ptolemy
// expression, the grid's table element or unitSS call, the custom
// matrix's entry — and pairs.Blend for sF, the bits the matrix oracle
// stores in its sF triangle.
func (ss *ScoreSet) Pair(i, j int) (sc, sp, sf float64) {
	if i > j {
		i, j = j, i // every fill computes a pair once, as (i, j) with i < j
	}
	sc = ss.Places[i].Context.Jaccard(ss.Places[j].Context)
	sp = ss.sp.At(i, j)
	return sc, sp, pairs.Blend(1-ss.Gamma, sc, ss.Gamma, sp)
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

// spatialSetup prepares ss's spatial method under opt: it records in
// ss.sp the pair source Pair and the instance read sS from, and returns
// the grids' pSS vector, from their cells. The exact and custom methods
// return none: Step 1 sums their pSS from the source's rows. Under an
// explain collector it records the method's statistics, for a grid with
// the approximation error sampled through Pair.
func (ss *ScoreSet) spatialSetup(ctx context.Context, opt ScoreOptions) (pss []float64, err error) {
	q, n := ss.Q, len(ss.Places)
	gs := explain.GridStats{Places: n}
	cells := opt.GridCells
	if cells <= 0 {
		cells = n // the paper's |G| ≈ K rule
	}
	var pts []geo.Point
	switch opt.Spatial {
	case SpatialExact:
		// Nothing is approximated; the method is still recorded so explain
		// output names the spatial path taken.
		gs.Kind, ss.sp = "exact", exactPairs{q: q, places: ss.Places}
	case SpatialSquaredGrid:
		pts = locations(ss.Places)
		g, err := grid.NewSquared(q, pts, cells)
		if err != nil {
			return nil, err
		}
		gs.Kind, gs.Cells, gs.OccupiedCells = "squared", g.Cells(), g.OccupiedCells()
		pss, ss.sp = g.PSS(opt.SquaredTable), squaredPairs{g.Pairs(opt.SquaredTable)}
	case SpatialRadialGrid:
		pts = locations(ss.Places)
		g, err := grid.NewRadial(q, pts, cells)
		if err != nil {
			return nil, err
		}
		gs.Kind, gs.Cells, gs.OccupiedCells = "radial", g.Sectors(), g.OccupiedSectors()
		pss, ss.sp = g.PSS(opt.RadialTable), radialPairs{g.Pairs(opt.RadialTable)}
	case SpatialCustom:
		if opt.CustomSpatial == nil {
			return nil, fmt.Errorf("core: SpatialCustom requires CustomSpatial")
		}
		m, err := opt.CustomSpatial(q, ss.Places)
		if err != nil {
			return nil, err
		}
		if m == nil || m.N() != n {
			return nil, fmt.Errorf("core: CustomSpatial returned a matrix of wrong size")
		}
		gs.Kind, ss.sp, ss.customLoose = "custom", customPairs{m}, !unitInterval(m)
	default:
		return nil, fmt.Errorf("core: unknown spatial method %v", opt.Spatial)
	}
	if ec := explain.FromContext(ctx); ec != nil {
		if gs.Kind == "squared" || gs.Kind == "radial" {
			ss.sampleGridError(&gs, pts)
		}
		ec.SetGrid(gs)
	}
	return pss, nil
}

// sampleGridError completes the explain statistics of an approximating
// spatial method with its places per cell and the sampled approximation
// error (exact sS recomputed on explainErrSamples random pairs and
// compared with the pair as Pair recomputes it). Call only under an
// explain collector: the sampling costs ~64 Ptolemy evaluations.
func (ss *ScoreSet) sampleGridError(gs *explain.GridStats, pts []geo.Point) {
	if gs.OccupiedCells > 0 {
		gs.PlacesPerCell = float64(len(pts)) / float64(gs.OccupiedCells)
	}
	approx := func(i, j int) float64 {
		_, sp, _ := ss.Pair(i, j)
		return sp
	}
	es := grid.SampleApproxError(ss.Q, pts, approx, explainErrSamples)
	gs.SampledPairs, gs.MeanAbsError, gs.MaxAbsError = es.Pairs, es.MeanAbs, es.MaxAbs
}

// unitInterval reports whether every entry of m is in [0, 1].
func unitInterval(m *pairs.Matrix) bool {
	for i := 0; i < m.N(); i++ {
		for _, v := range m.Row(i) {
			if !(v >= 0 && v <= 1) {
				return false
			}
		}
	}
	return true
}

// PairHPF returns the pairwise holistic score HPF(p_i, p_j) of Eq. 15 for
// result size k and weight λ. It requires k ≥ 2 (the formula divides by
// k−1); selection of a single place degenerates to ranking by rF.
func (ss *ScoreSet) PairHPF(i, j, k int, lambda float64) float64 {
	_, _, sf := ss.Pair(i, j)
	return pairHPF((1-lambda)*float64(len(ss.Places)-k), float64(k-1), lambda,
		ss.Places[i].Rel, ss.Places[j].Rel, ss.PFS[i], ss.PFS[j], sf)
}

// pairHPF is Eq. 15 from its parts: c1 = (1−λ)(K−k), kf = k−1, the two
// relevances, the two pFS scores and sF of the pair. PairHPF and the
// greedy loops all evaluate it, so their scores agree bit for bit; it is
// small enough to inline into the loops.
func pairHPF(c1, kf, lambda, ri, rj, fi, fj, sf float64) float64 {
	// The conversions round each product on its own, so no platform fuses
	// it into a multiply-add (see pairs.Blend).
	return c1*(ri+rj)/kf + float64(lambda*((fi+fj)/kf-float64(2*sf)))
}

// PlaceHPF returns the per-place holistic score HPF(p_i) of Eq. 9 w.r.t.
// the (partial) result set R, using the identity
// HPF(p_i) = (1−λ)(K−k)·rF(p_i) + λ·(pFS(p_i) − pFR(p_i)).
func (ss *ScoreSet) PlaceHPF(i int, r []int, k int, lambda float64) float64 {
	K := len(ss.Places)
	var pfr float64
	for _, j := range r {
		if j != i {
			_, _, sf := ss.Pair(i, j)
			pfr += sf
		}
	}
	return float64((1-lambda)*float64(K-k)*ss.Places[i].Rel) + float64(lambda*(ss.PFS[i]-pfr))
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
				sc, sp, _ := ss.Pair(i, j)
				scr += sc
				ssr += sp
			}
		}
		b.PC += ss.PCS[i] - scr // pC(p_i) = pCS − pCR (Eq. 2)
		b.PS += ss.PSS[i] - ssr // pS(p_i) = pSS − pSR (Eq. 5)
	}
	b.Rel *= float64(K - k)
	b.Total = pairs.Blend(1-lambda, b.Rel, lambda, pairs.Blend(1-ss.Gamma, b.PC, ss.Gamma, b.PS))
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
