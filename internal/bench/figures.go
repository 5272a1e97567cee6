package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textctx"
	"repro/internal/usereval"
)

// Fig7a measures the all-pairs contextual proportionality time (pCS for
// all of S) of msJh vs the baseline while K grows (|p| at default).
func (e *Env) Fig7a() *Table {
	t := &Table{
		Name:   "fig7a",
		Title:  "pCS(S) time vs K (DBpedia-like, |p|=default)",
		Header: []string{"K", "baseline_ms", "msJh_ms"},
		Notes: []string{
			"paper: similar for K ≤ 40; msJh significantly faster for K > 40",
			fmt.Sprintf("avg over %d queries", e.Scale.Queries),
		},
	}
	base, msjh := textctx.BaselineEngine{}, textctx.MSJHEngine{}
	for _, K := range e.Scale.Ks {
		tb := avgTime(e.dbQueries, func(qd *queryData) { base.AllPairs(sets(qd.topK(K))) })
		tm := avgTime(e.dbQueries, func(qd *queryData) { msjh.AllPairs(sets(qd.topK(K))) })
		t.AddRow(fmt.Sprint(K), ms(tb), ms(tm))
	}
	return t
}

// Fig7b measures the same comparison while the contextual set size |p|
// grows (K at default).
func (e *Env) Fig7b() *Table {
	t := &Table{
		Name:   "fig7b",
		Title:  "pCS(S) time vs |p| (DBpedia-like, K=default)",
		Header: []string{"|p|", "baseline_ms", "msJh_ms"},
		Notes:  []string{"paper: similar for |p| ≤ 20; msJh significantly faster for |p| > 40"},
	}
	base, msjh := textctx.BaselineEngine{}, textctx.MSJHEngine{}
	for _, P := range e.Scale.Ps {
		adjusted := make([][]textctx.Set, len(e.dbQueries))
		for i := range e.dbQueries {
			adjusted[i] = []textctx.Set{}
			pl := e.DB.AdjustContextSizes(e.dbQueries[i].topK(e.Scale.DefaultK), P, int64(100+i))
			adjusted[i] = sets(pl)
		}
		var tb, tm float64
		for i := range adjusted {
			start := time.Now()
			base.AllPairs(adjusted[i])
			tb += float64(time.Since(start).Microseconds())
			start = time.Now()
			msjh.AllPairs(adjusted[i])
			tm += float64(time.Since(start).Microseconds())
		}
		n := float64(len(adjusted)) * 1000
		t.AddRow(fmt.Sprint(P), ms(tb/n), ms(tm/n))
	}
	return t
}

// Fig7x is the minhash ablation the paper reports in prose: minhash only
// beats msJh once both K and |p| are very large.
func (e *Env) Fig7x() *Table {
	t := &Table{
		Name:   "fig7x",
		Title:  "msJh vs minhash (t=128) on synthetic sets",
		Header: []string{"K", "|p|", "msJh_ms", "minhash_ms", "minhash_maxerr"},
		Notes:  []string{"paper (prose): minhash outperforms msJh only when K > 1000 and |p| > 200"},
	}
	msjh := textctx.MSJHEngine{}
	mh := textctx.MinHashEngine{T: 128, Seed: 7}
	rng := rand.New(rand.NewSource(5))
	for _, kp := range [][2]int{{100, 100}, {1000, 100}, {1000, 400}, {2000, 400}} {
		K, P := kp[0], kp[1]
		ss := make([]textctx.Set, K)
		for i := range ss {
			ids := make([]textctx.ItemID, P)
			for j := range ids {
				ids[j] = textctx.ItemID(rng.Intn(P * 10))
			}
			ss[i] = textctx.NewSet(ids...)
		}
		start := time.Now()
		exact := msjh.AllPairs(ss)
		tm := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		approx := mh.AllPairs(ss)
		th := float64(time.Since(start).Microseconds()) / 1000
		t.AddRow(fmt.Sprint(K), fmt.Sprint(P), ms(tm), ms(th), f3(exact.MaxAbsDiff(approx)))
	}
	return t
}

func (e *Env) spatialRow(qs []queryData, K, G int) (tb, tsq, trad float64) {
	tb = avgTime(qs, func(qd *queryData) { grid.PSSBaseline(qd.query.Loc, locations(qd.topK(K))) })
	tsq = avgTime(qs, func(qd *queryData) {
		g, err := grid.NewSquared(qd.query.Loc, locations(qd.topK(K)), G)
		if err != nil {
			panic(err)
		}
		g.PSS(e.SqTbl)
	})
	trad = avgTime(qs, func(qd *queryData) {
		g, err := grid.NewRadial(qd.query.Loc, locations(qd.topK(K)), G)
		if err != nil {
			panic(err)
		}
		g.PSS(e.RadTbl)
	})
	return
}

// Fig8a measures pSS(S) computation time vs K on DBpedia-like data.
func (e *Env) Fig8a() *Table {
	t := &Table{
		Name:   "fig8a",
		Title:  "pSS(S) time vs K (DBpedia-like, |G|=default)",
		Header: []string{"K", "baseline_ms", "squared_ms", "radial_ms"},
		Notes:  []string{"paper: grids beat baseline by ≥ one order of magnitude; gap grows with K"},
	}
	for _, K := range e.Scale.Ks {
		tb, tsq, trad := e.spatialRow(e.dbQueries, K, e.Scale.DefaultG)
		t.AddRow(fmt.Sprint(K), ms(tb), ms(tsq), ms(trad))
	}
	return t
}

// Fig8b measures pSS(S) time vs the grid size |G|.
func (e *Env) Fig8b() *Table {
	t := &Table{
		Name:   "fig8b",
		Title:  "pSS(S) time vs |G| (DBpedia-like, K=default)",
		Header: []string{"|G|", "baseline_ms", "squared_ms", "radial_ms"},
		Notes:  []string{"paper: |G| marginally affects grid time"},
	}
	for _, G := range e.Scale.Gs {
		tb, tsq, trad := e.spatialRow(e.dbQueries, e.Scale.DefaultK, G)
		t.AddRow(fmt.Sprint(G), ms(tb), ms(tsq), ms(trad))
	}
	return t
}

// Fig8c repeats the spatial timing on the Yago2-like corpus (synoptic).
func (e *Env) Fig8c() *Table {
	t := &Table{
		Name:   "fig8c",
		Title:  "pSS(S) time vs K (Yago2-like)",
		Header: []string{"K", "baseline_ms", "squared_ms", "radial_ms"},
		Notes:  []string{"paper: Yago2 behaves like DBpedia"},
	}
	for _, K := range e.Scale.Ks {
		tb, tsq, trad := e.spatialRow(e.ygQueries, K, e.Scale.DefaultG)
		t.AddRow(fmt.Sprint(K), ms(tb), ms(tsq), ms(trad))
	}
	return t
}

// synthConfigs are the Figure 8(d)/9(d) synthetic location distributions.
func synthConfigs() []struct {
	name string
	gen  func(rng *rand.Rand, q geo.Point, n int) []geo.Point
} {
	return []struct {
		name string
		gen  func(rng *rand.Rand, q geo.Point, n int) []geo.Point
	}{
		{"uniform", func(rng *rand.Rand, q geo.Point, n int) []geo.Point {
			return dataset.UniformPoints(rng, q, n, 1)
		}},
		{"gauss.25", func(rng *rand.Rand, q geo.Point, n int) []geo.Point {
			return dataset.GaussianPoints(rng, q, n, 0.25)
		}},
		{"gauss.50", func(rng *rand.Rand, q geo.Point, n int) []geo.Point {
			return dataset.GaussianPoints(rng, q, n, 0.5)
		}},
	}
}

// Fig8d measures grid pSS time on synthetic uniform/Gaussian locations.
func (e *Env) Fig8d() *Table {
	t := &Table{
		Name:   "fig8d",
		Title:  "grid pSS time vs K on synthetic distributions",
		Header: []string{"K", "dist", "squared_ms", "radial_ms"},
		Notes:  []string{"paper: baseline omitted (much larger); squared ≈ radial"},
	}
	q := geo.Pt(0, 0)
	for _, K := range []int{20, 50, 100, 150, 200} {
		for _, sc := range synthConfigs() {
			rng := rand.New(rand.NewSource(9))
			const reps = 10
			var tsq, trad float64
			for rep := 0; rep < reps; rep++ {
				pts := sc.gen(rng, q, K)
				start := time.Now()
				g, err := grid.NewSquared(q, pts, K)
				if err != nil {
					panic(err)
				}
				g.PSS(e.SqTbl)
				tsq += float64(time.Since(start).Microseconds())
				start = time.Now()
				r, err := grid.NewRadial(q, pts, K)
				if err != nil {
					panic(err)
				}
				r.PSS(e.RadTbl)
				trad += float64(time.Since(start).Microseconds())
			}
			t.AddRow(fmt.Sprint(K), sc.name, ms(tsq/reps/1000), ms(trad/reps/1000))
		}
	}
	return t
}

func (e *Env) errorRow(qs []queryData, K, G int) (esq, erad float64) {
	for i := range qs {
		qd := &qs[i]
		pts := locations(qd.topK(K))
		exact, _ := grid.PSSBaseline(qd.query.Loc, pts)
		g, err := grid.NewSquared(qd.query.Loc, pts, G)
		if err != nil {
			panic(err)
		}
		esq += grid.RelativeError(g.PSS(e.SqTbl), exact)
		r, err := grid.NewRadial(qd.query.Loc, pts, G)
		if err != nil {
			panic(err)
		}
		erad += grid.RelativeError(r.PSS(e.RadTbl), exact)
	}
	n := float64(len(qs))
	return esq / n, erad / n
}

// Fig9a measures the relative approximation error of Σ pSS vs K.
func (e *Env) Fig9a() *Table {
	t := &Table{
		Name:   "fig9a",
		Title:  "relative error of Σ pSS vs K (DBpedia-like, |G|=default)",
		Header: []string{"K", "squared_err", "radial_err"},
		Notes:  []string{"paper: squared always better than radial; K does not affect the error"},
	}
	for _, K := range e.Scale.Ks {
		esq, erad := e.errorRow(e.dbQueries, K, e.Scale.DefaultG)
		t.AddRow(fmt.Sprint(K), f3(esq), f3(erad))
	}
	return t
}

// Fig9b measures the error vs |G|.
func (e *Env) Fig9b() *Table {
	t := &Table{
		Name:   "fig9b",
		Title:  "relative error of Σ pSS vs |G| (DBpedia-like, K=default)",
		Header: []string{"|G|", "squared_err", "radial_err"},
		Notes:  []string{"paper: error shrinks as |G| grows; |G| ≈ K gives ≈5% or lower"},
	}
	for _, G := range e.Scale.Gs {
		esq, erad := e.errorRow(e.dbQueries, e.Scale.DefaultK, G)
		t.AddRow(fmt.Sprint(G), f3(esq), f3(erad))
	}
	return t
}

// Fig9c repeats the error study on the Yago2-like corpus.
func (e *Env) Fig9c() *Table {
	t := &Table{
		Name:   "fig9c",
		Title:  "relative error of Σ pSS vs K (Yago2-like)",
		Header: []string{"K", "squared_err", "radial_err"},
	}
	for _, K := range e.Scale.Ks {
		esq, erad := e.errorRow(e.ygQueries, K, e.Scale.DefaultG)
		t.AddRow(fmt.Sprint(K), f3(esq), f3(erad))
	}
	return t
}

// Fig9d measures the error on the synthetic spatial distributions.
func (e *Env) Fig9d() *Table {
	t := &Table{
		Name:   "fig9d",
		Title:  "relative error of Σ pSS on synthetic distributions (|G| = K)",
		Header: []string{"K", "dist", "squared_err", "radial_err"},
	}
	q := geo.Pt(0, 0)
	for _, K := range []int{20, 50, 100, 200} {
		for _, sc := range synthConfigs() {
			rng := rand.New(rand.NewSource(11))
			const reps = 10
			var esq, erad float64
			for rep := 0; rep < reps; rep++ {
				pts := sc.gen(rng, q, K)
				exact, _ := grid.PSSBaseline(q, pts)
				g, err := grid.NewSquared(q, pts, K)
				if err != nil {
					panic(err)
				}
				esq += grid.RelativeError(g.PSS(e.SqTbl), exact)
				r, err := grid.NewRadial(q, pts, K)
				if err != nil {
					panic(err)
				}
				erad += grid.RelativeError(r.PSS(e.RadTbl), exact)
			}
			t.AddRow(fmt.Sprint(K), sc.name, f3(esq/reps), f3(erad/reps))
		}
	}
	return t
}

// pipelineTimes measures the three stacked components of Figure 10 for
// one (K, k) setting: contextual scores, spatial scores, greedy selection.
// Step 1's two halves are timed apart, each as its all-pairs engine and
// spatial method computes it (msJh and the squared grid when optimised,
// the paper's baselines otherwise); the greedy runs on the ComputeScores
// set of the same spatial method.
func (e *Env) pipelineTimes(K, k int, optimised bool, greedy func(*core.ScoreSet, core.Params) (core.Selection, error)) (ctxMs, spaMs, greedyMs float64) {
	params := core.Params{K: k, Lambda: 0.5, Gamma: 0.5}
	for i := range e.dbQueries {
		qd := &e.dbQueries[i]
		places := qd.topK(K)
		var engine textctx.JaccardEngine = textctx.BaselineEngine{}
		opt := core.ScoreOptions{Gamma: 0.5}
		if optimised {
			engine = textctx.MSJHEngine{}
			opt.Spatial, opt.SquaredTable = core.SpatialSquaredGrid, e.SqTbl
		}
		start := time.Now()
		engine.AllPairs(sets(places))
		ctxMs += float64(time.Since(start).Microseconds())

		start = time.Now()
		if optimised {
			g, err := grid.NewSquared(qd.query.Loc, locations(places), K)
			if err != nil {
				panic(err)
			}
			g.PSS(e.SqTbl)
			g.ApproxAllPairs(e.SqTbl)
		} else {
			grid.PSSBaseline(qd.query.Loc, locations(places))
		}
		spaMs += float64(time.Since(start).Microseconds())

		ss, err := core.ComputeScores(qd.query.Loc, places, opt)
		if err != nil {
			panic(err)
		}
		start = time.Now()
		if _, err := greedy(ss, params); err != nil {
			panic(err)
		}
		greedyMs += float64(time.Since(start).Microseconds())
	}
	n := float64(len(e.dbQueries)) * 1000
	return ctxMs / n, spaMs / n, greedyMs / n
}

// Fig10 measures the combined cost of the greedy algorithms with
// optimised (msJh + squared grid) vs baseline proportionality scores.
func (e *Env) Fig10() *Table {
	t := &Table{
		Name:   "fig10",
		Title:  "combined cost: greedy + spatial + contextual (DBpedia-like)",
		Header: []string{"K", "k", "method", "ctx_ms", "spatial_ms", "greedy_ms", "total_ms"},
		Notes: []string{
			"paper: optimised ≈ one order of magnitude faster; greedy cost insignificant",
		},
	}
	type combo struct {
		name      string
		optimised bool
		alg       func(*core.ScoreSet, core.Params) (core.Selection, error)
	}
	combos := []combo{
		{"IAdU-opt", true, core.IAdU},
		{"IAdU-base", false, core.IAdU},
		{"ABP-opt", true, core.ABP},
		{"ABP-base", false, core.ABP},
	}
	add := func(K, k int) {
		for _, c := range combos {
			ctxMs, spaMs, gMs := e.pipelineTimes(K, k, c.optimised, c.alg)
			t.AddRow(fmt.Sprint(K), fmt.Sprint(k), c.name,
				ms(ctxMs), ms(spaMs), ms(gMs), ms(ctxMs+spaMs+gMs))
		}
	}
	for _, K := range e.Scale.Ks {
		if K > 400 {
			continue // Figure 10 sweeps K up to 400
		}
		add(K, e.Scale.Defaultk)
	}
	for _, k := range e.Scale.SmallKs {
		if k != e.Scale.Defaultk {
			add(e.Scale.DefaultK, k)
		}
	}
	return t
}

// Fig11 measures the HPF(R) score and its rF/pC/pS breakdown for IAdU and
// ABP with exact vs grid-approximated spatial scores. Selections made on
// approximated scores are re-evaluated under exact scores, so the quality
// compromise of the grid is visible.
func (e *Env) Fig11() *Table {
	t := &Table{
		Name:   "fig11",
		Title:  "HPF(R) quality: rF/pC/pS breakdown (DBpedia-like)",
		Header: []string{"K", "k", "method", "rF_part", "pC_part", "pS_part", "HPF"},
		Notes: []string{
			"paper: ABP marginally better than IAdU (≈2%); grid compromise minor (≈1-7%)",
		},
	}
	type combo struct {
		name string
		alg  func(*core.ScoreSet, core.Params) (core.Selection, error)
		grid bool
	}
	combos := []combo{
		{"IAdU-exact", core.IAdU, false},
		{"IAdU-grid", core.IAdU, true},
		{"ABP-exact", core.ABP, false},
		{"ABP-grid", core.ABP, true},
	}
	add := func(K, k int) {
		params := core.Params{K: k, Lambda: 0.5, Gamma: 0.5}
		for _, c := range combos {
			var rel, pc, ps, hpf float64
			for i := range e.dbQueries {
				qd := &e.dbQueries[i]
				places := qd.topK(K)
				exact, err := core.ComputeScores(qd.query.Loc, places, core.ScoreOptions{Gamma: 0.5})
				if err != nil {
					panic(err)
				}
				scoreSet := exact
				if c.grid {
					scoreSet, err = core.ComputeScores(qd.query.Loc, places, core.ScoreOptions{
						Gamma:        0.5,
						Spatial:      core.SpatialSquaredGrid,
						SquaredTable: e.SqTbl,
					})
					if err != nil {
						panic(err)
					}
				}
				sel, err := c.alg(scoreSet, params)
				if err != nil {
					panic(err)
				}
				b := exact.Evaluate(sel.Indices, params.Lambda)
				rel += b.Rel
				pc += b.PC
				ps += b.PS
				hpf += b.Total
			}
			n := float64(len(e.dbQueries))
			t.AddRow(fmt.Sprint(K), fmt.Sprint(k), c.name,
				f2(rel/n), f2(pc/n), f2(ps/n), f2(hpf/n))
		}
	}
	add(e.Scale.DefaultK, e.Scale.Defaultk)
	for _, K := range []int{50, 200} {
		if K <= e.Scale.Places {
			add(K, e.Scale.Defaultk)
		}
	}
	for _, k := range e.Scale.SmallKs {
		if k != e.Scale.Defaultk {
			add(e.Scale.DefaultK, k)
		}
	}
	return t
}

// studySets builds the user-study result sets (10 queries, as in the
// paper's Section 9.4).
func studySets(n int) ([]*core.ScoreSet, error) {
	out := make([]*core.ScoreSet, n)
	for i := range out {
		ss, err := usereval.SyntheticStudySet(int64(200 + i))
		if err != nil {
			return nil, err
		}
		out[i] = ss
	}
	return out, nil
}

// Fig12a runs the simulated user study: the evaluator panel scores the
// top-k (S_k), diversified (ABP_D) and proportional (ABP) result lists on
// the five criteria.
func (e *Env) Fig12a() *Table {
	t := &Table{
		Name:   "fig12a",
		Title:  "user study: preference (P1, P2) and usability (T1–T3) scores",
		Header: []string{"method", "P1", "P2", "T1", "T2", "T3", "mean"},
		Notes: []string{
			"synthetic evaluator panel (see internal/usereval); paper: proportional > diversified > top-k",
		},
	}
	sets, err := studySets(20)
	if err != nil {
		panic(err)
	}
	panel := usereval.NewPanel(10, 42)
	params := core.Params{K: 10, Lambda: 0.5, Gamma: 0.5}
	methods := []struct {
		name string
		alg  func(*core.ScoreSet, core.Params) (core.Selection, error)
	}{
		{"S_k", core.TopK},
		{"ABP_D", core.ABPDiv},
		{"ABP", core.ABP},
	}
	for _, m := range methods {
		scores := map[usereval.Criterion]float64{}
		for _, ss := range sets {
			sel, err := m.alg(ss, params)
			if err != nil {
				panic(err)
			}
			for _, c := range usereval.Criteria {
				scores[c] += panel.Score(ss, sel.Indices, c) / float64(len(sets))
			}
		}
		var mean float64
		row := []string{m.name}
		for _, c := range usereval.Criteria {
			row = append(row, f2(scores[c]))
			mean += scores[c]
		}
		row = append(row, f2(mean/float64(len(usereval.Criteria))))
		t.AddRow(row...)
	}
	return t
}

// Fig12b sweeps λ and γ and reports the panel's P1 preference for ABP.
func (e *Env) Fig12b() *Table {
	t := &Table{
		Name:   "fig12b",
		Title:  "user preference (P1) for ABP vs λ and γ",
		Header: []string{"lambda", "gamma", "P1"},
		Notes:  []string{"paper: the default λ = γ = 0.5 is most preferable in most cases"},
	}
	sets, err := studySets(6)
	if err != nil {
		panic(err)
	}
	panel := usereval.NewPanel(10, 42)
	vals := []float64{0, 0.25, 0.5, 0.75, 1}
	for _, lambda := range vals {
		for _, gamma := range vals {
			var score float64
			for _, base := range sets {
				ss, err := core.ComputeScores(base.Q, base.Places, core.ScoreOptions{Gamma: gamma})
				if err != nil {
					panic(err)
				}
				sel, err := core.ABP(ss, core.Params{K: 10, Lambda: lambda, Gamma: gamma})
				if err != nil {
					panic(err)
				}
				score += panel.Score(ss, sel.Indices, usereval.P1) / float64(len(sets))
			}
			t.AddRow(f2(lambda), f2(gamma), f2(score))
		}
	}
	return t
}

// Runners maps experiment names to their runners, in report order.
func (e *Env) Runners() []func() *Table {
	return []func() *Table{
		e.Fig7a, e.Fig7b, e.Fig7x,
		e.Fig8a, e.Fig8b, e.Fig8c, e.Fig8d,
		e.Fig9a, e.Fig9b, e.Fig9c, e.Fig9d,
		e.Fig10, e.Fig11, e.Fig12a, e.Fig12b,
		e.Ablations,
	}
}

// Names lists the runnable experiment names.
func Names() []string {
	return []string{
		"fig7a", "fig7b", "fig7x",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "fig9c", "fig9d",
		"fig10", "fig11", "fig12a", "fig12b",
		"ablations",
	}
}

// Run executes one experiment by name.
func (e *Env) Run(name string) (*Table, error) {
	names := Names()
	for i, r := range e.Runners() {
		if names[i] == name {
			return r(), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
}
