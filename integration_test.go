// End-to-end integration tests: generated corpus → IR-tree retrieval →
// Step-1 scoring under every spatial method → Step-2 selection under every
// algorithm, with the exact all-pairs engines checked against Step 1.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textctx"
	"repro/internal/usereval"
)

func integrationDataset(t *testing.T) (*dataset.Dataset, dataset.Query, []core.Place) {
	t.Helper()
	cfg := dataset.DBpediaLike(21)
	cfg.Places = 800
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := d.GenQueries(1, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	places, err := d.Retrieve(qs[0], 120)
	if err != nil {
		t.Fatal(err)
	}
	return d, qs[0], places
}

// TestPipelineEngineMatrix runs Step 1 with every spatial method and
// Step 2 with every algorithm, checking that (a) every exact all-pairs
// engine agrees bit for bit with the sC the score set recomputes, and
// (b) every selection is feasible with positive HPF.
func TestPipelineEngineMatrix(t *testing.T) {
	_, q, places := integrationDataset(t)

	spatials := []core.SpatialMethod{core.SpatialExact, core.SpatialSquaredGrid, core.SpatialRadialGrid}
	for _, sm := range spatials {
		ss, err := core.ComputeScores(q.Loc, places, core.ScoreOptions{Gamma: 0.5, Spatial: sm})
		if err != nil {
			t.Fatalf("%v: %v", sm, err)
		}
		if sm == core.SpatialExact {
			sets := make([]textctx.Set, len(places))
			for i := range places {
				sets[i] = places[i].Context
			}
			for _, eng := range []textctx.JaccardEngine{
				textctx.BaselineEngine{}, textctx.MSJHEngine{}, textctx.NaiveInvertedEngine{},
			} {
				m := eng.AllPairs(sets)
				for i := range places {
					for j := i + 1; j < len(places); j++ {
						if sc, _, _ := ss.Pair(i, j); math.Float64bits(sc) != math.Float64bits(m.At(i, j)) {
							t.Fatalf("%s disagrees with Step 1 at (%d,%d): %v vs %v", eng.Name(), i, j, m.At(i, j), sc)
						}
					}
				}
			}
		}
		for name, alg := range map[string]func(*core.ScoreSet, core.Params) (core.Selection, error){
			"IAdU": core.IAdU, "ABP": core.ABP,
			"TopK": core.TopK, "IAdUDiv": core.IAdUDiv, "ABPDiv": core.ABPDiv,
		} {
			sel, err := alg(ss, core.Params{K: 10, Lambda: 0.5, Gamma: 0.5})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(sel.Indices) != 10 {
				t.Fatalf("%s: |R| = %d", name, len(sel.Indices))
			}
			if sel.HPF <= 0 {
				t.Fatalf("%s under %v: HPF = %g", name, sm, sel.HPF)
			}
		}
	}
}

// TestGridSelectionsNearExact: selections made on grid-approximated
// scores, re-evaluated under exact scores, must stay within a few percent
// of the exact-score selections (the Figure 11 claim, end to end).
func TestGridSelectionsNearExact(t *testing.T) {
	_, q, places := integrationDataset(t)
	exact, err := core.ComputeScores(q.Loc, places, core.ScoreOptions{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := core.ComputeScores(q.Loc, places, core.ScoreOptions{
		Gamma:   0.5,
		Spatial: core.SpatialSquaredGrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{K: 10, Lambda: 0.5, Gamma: 0.5}
	se, err := core.ABP(exact, p)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := core.ABP(approx, p)
	if err != nil {
		t.Fatal(err)
	}
	he := exact.Evaluate(se.Indices, p.Lambda).Total
	ha := exact.Evaluate(sa.Indices, p.Lambda).Total
	if ha < 0.9*he {
		t.Errorf("grid selection HPF %g more than 10%% below exact %g", ha, he)
	}
}

// TestRetrievalFeedsSelection checks the IR-tree contract the framework
// relies on: the retrieved set is sorted by rF and its scores are valid
// relevance values.
func TestRetrievalFeedsSelection(t *testing.T) {
	_, _, places := integrationDataset(t)
	for i, p := range places {
		if err := p.Validate(); err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
		if i > 0 && p.Rel > places[i-1].Rel+1e-12 {
			t.Fatal("retrieved set not sorted by relevance")
		}
	}
}

// TestPSSAgreesAcrossLayers cross-checks the pSS computations the system
// has (core exact path, grid baseline, and the row sums of the exact
// all-pairs fill) on retrieved data.
func TestPSSAgreesAcrossLayers(t *testing.T) {
	_, q, places := integrationDataset(t)
	ss, err := core.ComputeScores(q.Loc, places, core.ScoreOptions{Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geo.Point, len(places))
	for i := range places {
		pts[i] = places[i].Loc
	}
	want, _ := grid.PSSBaseline(q.Loc, pts)
	for i := range want {
		if math.Abs(want[i]-ss.PSS[i]) > 1e-9 {
			t.Fatalf("pSS[%d]: core %g vs grid %g", i, ss.PSS[i], want[i])
		}
	}
	rows := grid.AllPairsSpatial(q.Loc, pts).RowSums()
	for i := range want {
		if want[i] != rows[i] {
			t.Fatalf("row-sum pSS[%d] differs", i)
		}
	}
}

// TestStudySetPipeline: the user-study generator output flows through the
// panel and algorithms without error and with sane score ranges.
func TestStudySetPipeline(t *testing.T) {
	ss, err := usereval.SyntheticStudySet(33)
	if err != nil {
		t.Fatal(err)
	}
	panel := usereval.NewPanel(10, 3)
	for name, alg := range map[string]func(*core.ScoreSet, core.Params) (core.Selection, error){
		"ABP": core.ABP, "TopK": core.TopK, "ABPDiv": core.ABPDiv,
	} {
		sel, err := alg(ss, core.Params{K: 10, Lambda: 0.5, Gamma: 0.5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range usereval.Criteria {
			if s := panel.Score(ss, sel.Indices, c); s < 1 || s > 10 {
				t.Fatalf("%s/%v: score %g", name, c, s)
			}
		}
	}
}
