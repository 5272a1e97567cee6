package core

import (
	"context"

	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/pairs"
	"repro/internal/textctx"
)

// matrixScores is the output of the Step-1 oracle: the sC, sS and sF
// triangles and the vectors derived from them.
type matrixScores struct {
	PCS, PSS, PFS []float64
	SC, SS, SF    *pairs.Matrix
}

// matrixStep1 is Step 1 stage by stage, the oracle the fused pass is
// checked against: msJh fills the sC triangle, the spatial method the sS
// triangle (the custom hook's matrix as returned, the exact method
// through its row fill, a grid through its ApproxAllPairs fill),
// Matrix.RowSums sums pCS and the exact and custom pSS (a grid's pSS
// comes from its cells), and pairs.Blend combines each pair into sF and
// each place into pFS.
// Under an explain collector it records msJh's pruning and the
// spatial method's statistics, which the fused pass must match.
func matrixStep1(ctx context.Context, q geo.Point, places []Place, opt ScoreOptions) (*matrixScores, error) {
	n := len(places)
	sets := make([]textctx.Set, n)
	pts := make([]geo.Point, n)
	for i := range places {
		sets[i], pts[i] = places[i].Context, places[i].Loc
	}
	sc, err := textctx.MSJHEngine{}.AllPairsCtx(ctx, sets)
	if err != nil {
		return nil, err
	}
	var sp *pairs.Matrix
	var pss []float64
	if opt.Spatial == SpatialCustom {
		if sp, err = opt.CustomSpatial(q, places); err != nil {
			return nil, err
		}
		if ec := explain.FromContext(ctx); ec != nil {
			ec.SetGrid(explain.GridStats{Kind: "custom", Places: n})
		}
	} else {
		scratch := &ScoreSet{Places: places, Q: q, Gamma: opt.Gamma, opt: opt}
		var rows func(i int, row []float64)
		if rows, pss, err = scratch.spatialSetup(ctx, pts); err != nil {
			return nil, err
		}
		cells := opt.GridCells
		if cells <= 0 {
			cells = n
		}
		switch opt.Spatial {
		case SpatialSquaredGrid:
			g, err := grid.NewSquared(q, pts, cells)
			if err != nil {
				return nil, err
			}
			sp, err = g.ApproxAllPairsCtx(ctx, opt.SquaredTable)
			if err != nil {
				return nil, err
			}
		case SpatialRadialGrid:
			g, err := grid.NewRadial(q, pts, cells)
			if err != nil {
				return nil, err
			}
			sp = g.ApproxAllPairs(opt.RadialTable)
		default:
			if sp, err = pairs.FillRows(ctx, n, rows); err != nil {
				return nil, err
			}
		}
	}
	if pss == nil {
		pss = sp.RowSums()
	}
	m := &matrixScores{PCS: sc.RowSums(), PSS: pss, PFS: make([]float64, n), SC: sc, SS: sp, SF: pairs.New(n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.SF.Set(i, j, pairs.Blend(1-opt.Gamma, sc.At(i, j), opt.Gamma, sp.At(i, j)))
		}
		m.PFS[i] = pairs.Blend(1-opt.Gamma, m.PCS[i], opt.Gamma, m.PSS[i])
	}
	return m, nil
}
