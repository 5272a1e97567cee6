package bench

import (
	"time"

	"repro/internal/grid"
	"repro/internal/textctx"
)

// Ablations quantifies the design choices DESIGN.md calls out:
//
//  1. msJh's reverse-order early cut-off vs naive inverted lists vs the
//     per-pair hash baseline;
//  2. precomputed cell-centre similarity tables vs on-the-fly Ptolemy
//     computation inside the grid;
//  3. the |G| ≈ K rule vs fixed coarse/fine grids (time and error).
func (e *Env) Ablations() *Table {
	t := &Table{
		Name:   "ablations",
		Title:  "design-choice ablations (DBpedia-like, defaults)",
		Header: []string{"ablation", "variant", "time_ms", "err"},
	}
	K := e.Scale.DefaultK

	// 1. Contextual engines. The msJh-vs-naive gap is small at the
	// default K, so each measurement repeats the computation to push the
	// signal above scheduler jitter.
	const ctxReps = 5
	for _, eng := range []textctx.JaccardEngine{
		textctx.MSJHEngine{}, textctx.NaiveInvertedEngine{}, textctx.BaselineEngine{},
	} {
		eng := eng
		tm := avgTime(e.dbQueries, func(qd *queryData) {
			ss := sets(qd.topK(K))
			for r := 0; r < ctxReps; r++ {
				eng.AllPairs(ss)
			}
		})
		t.AddRow("ctx-engine", eng.Name(), ms(tm/ctxReps), "-")
	}

	// 2. Grid table vs on-the-fly.
	for _, variant := range []struct {
		name string
		tbl  *grid.SquaredTable
	}{{"precomputed-table", e.SqTbl}, {"on-the-fly", nil}} {
		variant := variant
		tm := avgTime(e.dbQueries, func(qd *queryData) {
			g, err := grid.NewSquared(qd.query.Loc, locations(qd.topK(K)), e.Scale.DefaultG)
			if err != nil {
				panic(err)
			}
			g.PSS(variant.tbl)
		})
		t.AddRow("squared-pss", variant.name, ms(tm), "-")
	}

	// 3. |G| sizing rule: compare error and time at fixed coarse/fine
	// grids vs |G| = K.
	for _, gs := range []struct {
		name  string
		cells int
	}{
		{"G=36 (coarse)", 36},
		{"G=K (paper rule)", K},
		{"G=4K (fine)", 4 * K},
	} {
		var tm, errSum float64
		for i := range e.dbQueries {
			qd := &e.dbQueries[i]
			pts := locations(qd.topK(K))
			exact, _ := grid.PSSBaseline(qd.query.Loc, pts)
			start := time.Now()
			g, err := grid.NewSquared(qd.query.Loc, pts, gs.cells)
			if err != nil {
				panic(err)
			}
			approx := g.PSS(e.SqTbl)
			tm += float64(time.Since(start).Microseconds())
			errSum += grid.RelativeError(approx, exact)
		}
		n := float64(len(e.dbQueries))
		t.AddRow("grid-sizing", gs.name, ms(tm/n/1000), f3(errSum/n))
	}
	return t
}
