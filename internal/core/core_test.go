package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/textctx"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// makePlaces builds n synthetic places around q with relevance in
// [relMin, 1], contexts of ~ctxSize items over a vocabulary of vocab.
func makePlaces(rng *rand.Rand, q geo.Point, n, ctxSize, vocab int, relMin float64) []Place {
	d := textctx.NewDict()
	for i := 0; i < vocab; i++ {
		d.Intern(word(i))
	}
	places := make([]Place, n)
	for i := range places {
		sz := 1 + rng.Intn(ctxSize)
		ids := make([]textctx.ItemID, sz)
		for j := range ids {
			ids[j] = textctx.ItemID(rng.Intn(vocab))
		}
		places[i] = Place{
			ID:      word(i),
			Loc:     geo.Pt(q.X+rng.NormFloat64(), q.Y+rng.NormFloat64()),
			Rel:     relMin + rng.Float64()*(1-relMin),
			Context: textctx.NewSet(ids...),
		}
	}
	return places
}

func word(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	s := []byte{letters[i%26]}
	for i /= 26; i > 0; i /= 26 {
		s = append(s, letters[i%26])
	}
	return string(s)
}

func mustScores(t testing.TB, q geo.Point, places []Place, opt ScoreOptions) *ScoreSet {
	t.Helper()
	ss, err := ComputeScores(q, places, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func defaultScoreSet(t testing.TB, n int, seed int64) *ScoreSet {
	q := geo.Pt(0, 0)
	rng := rand.New(rand.NewSource(seed))
	places := makePlaces(rng, q, n, 12, 40, 0.2)
	return mustScores(t, q, places, ScoreOptions{Gamma: 0.5})
}

func TestPlaceValidate(t *testing.T) {
	good := Place{ID: "p", Loc: geo.Pt(1, 2), Rel: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid place rejected: %v", err)
	}
	bad := []Place{
		{Loc: geo.Pt(math.NaN(), 0), Rel: 0.5},
		{Loc: geo.Pt(0, 0), Rel: -0.1},
		{Loc: geo.Pt(0, 0), Rel: 1.5},
		{Loc: geo.Pt(0, 0), Rel: math.NaN()},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad place %d accepted", i)
		}
	}
}

func TestComputeScoresValidation(t *testing.T) {
	places := []Place{{Loc: geo.Pt(0, 0), Rel: 0.5}, {Loc: geo.Pt(1, 0), Rel: 0.5}}
	if _, err := ComputeScores(geo.Pt(math.Inf(1), 0), places, ScoreOptions{}); err == nil {
		t.Error("invalid query accepted")
	}
	badPlaces := []Place{{Loc: geo.Pt(0, 0), Rel: 2}}
	if _, err := ComputeScores(geo.Pt(0, 0), badPlaces, ScoreOptions{}); err == nil {
		t.Error("invalid place accepted")
	}
	if _, err := ComputeScores(geo.Pt(0, 0), places, ScoreOptions{Gamma: 1.5}); err == nil {
		t.Error("invalid gamma accepted")
	}
	if _, err := ComputeScores(geo.Pt(0, 0), places, ScoreOptions{Spatial: SpatialMethod(99)}); err == nil {
		t.Error("unknown spatial method accepted")
	}
}

func TestSpatialMethodString(t *testing.T) {
	if SpatialExact.String() != "exact" ||
		SpatialSquaredGrid.String() != "squared-grid" ||
		SpatialRadialGrid.String() != "radial-grid" {
		t.Error("SpatialMethod.String wrong")
	}
	if SpatialMethod(42).String() == "" {
		t.Error("unknown method has empty String")
	}
}

// TestScoreVectorsMatchDefinitions recomputes pCS, pSS, pFS from their
// definitions (Eq. 3, 6, 11) and compares with Step 1's output.
func TestScoreVectorsMatchDefinitions(t *testing.T) {
	q := geo.Pt(0.5, -0.5)
	rng := rand.New(rand.NewSource(3))
	places := makePlaces(rng, q, 30, 10, 30, 0)
	gamma := 0.3
	ss := mustScores(t, q, places, ScoreOptions{Gamma: gamma})
	for i := range places {
		var pcs, pss float64
		for j := range places {
			if j == i {
				continue
			}
			pcs += places[i].Context.Jaccard(places[j].Context)
			pss += geo.PtolemySimilarity(q, places[i].Loc, places[j].Loc)
		}
		if !almostEqual(ss.PCS[i], pcs, 1e-9) {
			t.Errorf("pCS[%d] = %g, want %g", i, ss.PCS[i], pcs)
		}
		if !almostEqual(ss.PSS[i], pss, 1e-9) {
			t.Errorf("pSS[%d] = %g, want %g", i, ss.PSS[i], pss)
		}
		want := (1-gamma)*pcs + gamma*pss
		if !almostEqual(ss.PFS[i], want, 1e-9) {
			t.Errorf("pFS[%d] = %g, want %g", i, ss.PFS[i], want)
		}
	}
}

// TestPairwiseDecompositionIdentity verifies the Eq. 15/16 identity:
// Σ_{pairs of R} HPF(p_i, p_j) = Σ_{p∈R} HPF(p_i) = HPF(R), for random
// subsets and parameter settings.
func TestPairwiseDecompositionIdentity(t *testing.T) {
	ss := defaultScoreSet(t, 25, 7)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(8)
		r := rng.Perm(ss.K())[:k]
		lambda := rng.Float64()
		want := ss.Evaluate(r, lambda).Total
		got := ss.EvaluatePairwise(r, lambda)
		if !almostEqual(got, want, 1e-9*(1+math.Abs(want))) {
			t.Fatalf("trial %d (k=%d, λ=%g): pairwise %g vs per-place %g",
				trial, k, lambda, got, want)
		}
		// And the per-place HPF sums to the same total.
		var sum float64
		for _, i := range r {
			sum += ss.PlaceHPF(i, r, k, lambda)
		}
		if !almostEqual(sum, want, 1e-9*(1+math.Abs(want))) {
			t.Fatalf("trial %d: Σ PlaceHPF = %g vs %g", trial, sum, want)
		}
	}
}

func TestEvaluateBreakdown(t *testing.T) {
	ss := defaultScoreSet(t, 20, 11)
	r := []int{0, 3, 7, 12}
	lambda := 0.4
	b := ss.Evaluate(r, lambda)
	want := (1-lambda)*b.Rel + lambda*((1-ss.Gamma)*b.PC+ss.Gamma*b.PS)
	if !almostEqual(b.Total, want, 1e-9) {
		t.Errorf("Total = %g, want %g from components", b.Total, want)
	}
	// Rel component = (K−k) · Σ rF.
	var rel float64
	for _, i := range r {
		rel += ss.Places[i].Rel
	}
	rel *= float64(ss.K() - len(r))
	if !almostEqual(b.Rel, rel, 1e-9) {
		t.Errorf("Rel = %g, want %g", b.Rel, rel)
	}
}

// TestLambdaExtremes: with λ=0 the objective is pure (normalised)
// relevance, so TopK must be optimal; with λ=1 relevance is ignored.
func TestLambdaExtremes(t *testing.T) {
	ss := defaultScoreSet(t, 15, 13)
	p := Params{K: 4, Lambda: 0, Gamma: 0.5}
	topk, err := TopK(ss, p)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Exact(ss, p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(topk.HPF, ex.HPF, 1e-9) {
		t.Errorf("λ=0: TopK HPF %g != exact %g", topk.HPF, ex.HPF)
	}
}

func selectionOK(t *testing.T, name string, sel Selection, k, n int) {
	t.Helper()
	if len(sel.Indices) != k {
		t.Fatalf("%s: |R| = %d, want %d", name, len(sel.Indices), k)
	}
	seen := map[int]bool{}
	for _, i := range sel.Indices {
		if i < 0 || i >= n {
			t.Fatalf("%s: index %d out of range", name, i)
		}
		if seen[i] {
			t.Fatalf("%s: duplicate index %d", name, i)
		}
		seen[i] = true
	}
}

func TestGreedySelectionsWellFormed(t *testing.T) {
	ss := defaultScoreSet(t, 40, 17)
	algs := map[string]func(*ScoreSet, Params) (Selection, error){
		"IAdU": IAdU, "ABP": ABP, "TopK": TopK, "IAdUDiv": IAdUDiv, "ABPDiv": ABPDiv,
	}
	for _, k := range []int{1, 2, 3, 10, 39} {
		p := Params{K: k, Lambda: 0.5, Gamma: 0.5}
		for name, alg := range algs {
			sel, err := alg(ss, p)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			selectionOK(t, name, sel, k, ss.K())
		}
		sel, err := RandomSelect(ss, p, 5)
		if err != nil {
			t.Fatal(err)
		}
		selectionOK(t, "Random", sel, k, ss.K())
	}
}

func TestParamValidation(t *testing.T) {
	ss := defaultScoreSet(t, 10, 19)
	bad := []Params{
		{K: 0, Lambda: 0.5},
		{K: -3, Lambda: 0.5},
		{K: 10, Lambda: 0.5}, // k must be < K
		{K: 15, Lambda: 0.5}, // k > K
		{K: 5, Lambda: -0.1}, // λ out of range
		{K: 5, Lambda: 1.1},  // λ out of range
		{K: 5, Gamma: 2},     // γ out of range
		{K: 5, Lambda: math.NaN()},
	}
	for i, p := range bad {
		for name, alg := range map[string]func(*ScoreSet, Params) (Selection, error){
			"IAdU": IAdU, "ABP": ABP, "IAdUDiv": IAdUDiv, "ABPDiv": ABPDiv, "TopK": TopK, "Exact": Exact,
		} {
			if _, err := alg(ss, p); err == nil {
				t.Errorf("%s accepted bad params %d: %+v", name, i, p)
			}
		}
	}
}

func TestIAdUFirstPickIsMostRelevant(t *testing.T) {
	ss := defaultScoreSet(t, 30, 23)
	best := 0
	for i := range ss.Places {
		if ss.Places[i].Rel > ss.Places[best].Rel {
			best = i
		}
	}
	sel, err := IAdU(ss, Params{K: 5, Lambda: 0.5, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Indices[0] != best {
		t.Errorf("first pick %d, want most relevant %d", sel.Indices[0], best)
	}
}

func TestTopKOrdering(t *testing.T) {
	ss := defaultScoreSet(t, 20, 29)
	sel, err := TopK(ss, Params{K: 6, Lambda: 0.5, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sel.Indices); i++ {
		if ss.Places[sel.Indices[i]].Rel > ss.Places[sel.Indices[i-1]].Rel {
			t.Fatal("TopK not sorted by relevance")
		}
	}
}

func TestRandomSelectDeterministic(t *testing.T) {
	ss := defaultScoreSet(t, 20, 31)
	p := Params{K: 5, Lambda: 0.5, Gamma: 0.5}
	a, _ := RandomSelect(ss, p, 99)
	b, _ := RandomSelect(ss, p, 99)
	c, _ := RandomSelect(ss, p, 100)
	if !equalInts(a.Indices, b.Indices) {
		t.Error("same seed gave different selections")
	}
	if equalInts(a.Indices, c.Indices) {
		t.Error("different seeds gave identical selections (unlikely)")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestApproximationBounds checks Theorem 8.2's consequences on instances
// satisfying the triangle-inequality condition (rF ≥ λ(k−1)/((1−λ)(K−k))):
// IAdU achieves ≥ OPT/4 and ABP ≥ OPT/2.
func TestApproximationBounds(t *testing.T) {
	q := geo.Pt(0, 0)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// K=18, k=4, λ=0.5 → threshold = 3/14 ≈ 0.214; rF ≥ 0.3 everywhere.
		places := makePlaces(rng, q, 18, 8, 25, 0.3)
		ss := mustScores(t, q, places, ScoreOptions{Gamma: 0.5})
		p := Params{K: 4, Lambda: 0.5, Gamma: 0.5}
		ex, err := Exact(ss, p)
		if err != nil {
			t.Fatal(err)
		}
		if ex.HPF <= 0 {
			t.Fatalf("seed %d: exact optimum %g not positive", seed, ex.HPF)
		}
		ia, err := IAdU(ss, p)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := ABP(ss, p)
		if err != nil {
			t.Fatal(err)
		}
		if ia.HPF < ex.HPF/4-1e-9 {
			t.Errorf("seed %d: IAdU %g below OPT/4 (OPT=%g)", seed, ia.HPF, ex.HPF)
		}
		if ab.HPF < ex.HPF/2-1e-9 {
			t.Errorf("seed %d: ABP %g below OPT/2 (OPT=%g)", seed, ab.HPF, ex.HPF)
		}
		if ia.HPF > ex.HPF+1e-9 || ab.HPF > ex.HPF+1e-9 {
			t.Errorf("seed %d: greedy exceeded the optimum", seed)
		}
	}
}

func TestExactTooLarge(t *testing.T) {
	ss := defaultScoreSet(t, 60, 37)
	if _, err := Exact(ss, Params{K: 20, Lambda: 0.5, Gamma: 0.5}); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestBinomialExceeds(t *testing.T) {
	if binomialExceeds(10, 3, 120) {
		t.Error("C(10,3) = 120 should not exceed 120")
	}
	if !binomialExceeds(10, 3, 119) {
		t.Error("C(10,3) = 120 should exceed 119")
	}
	if binomialExceeds(5, 5, 1) {
		t.Error("C(5,5) = 1 should not exceed 1")
	}
	if !binomialExceeds(1000, 500, 2_000_000) {
		t.Error("C(1000,500) must exceed limit without overflow")
	}
}

// TestGridScoringCloseToExact: running the full pipeline with grid-based
// spatial scores changes HPF(R) only marginally (the Figure 11 claim).
func TestGridScoringCloseToExact(t *testing.T) {
	q := geo.Pt(0, 0)
	rng := rand.New(rand.NewSource(41))
	places := makePlaces(rng, q, 100, 10, 40, 0.2)
	p := Params{K: 10, Lambda: 0.5, Gamma: 0.5}

	exactSS := mustScores(t, q, places, ScoreOptions{Gamma: 0.5, Spatial: SpatialExact})
	for _, sm := range []SpatialMethod{SpatialSquaredGrid, SpatialRadialGrid} {
		gridSS := mustScores(t, q, places, ScoreOptions{Gamma: 0.5, Spatial: sm})
		selG, err := ABP(gridSS, p)
		if err != nil {
			t.Fatal(err)
		}
		selE, err := ABP(exactSS, p)
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate both selections under the exact scores.
		hG := exactSS.Evaluate(selG.Indices, p.Lambda).Total
		hE := exactSS.Evaluate(selE.Indices, p.Lambda).Total
		if hG < 0.75*hE {
			t.Errorf("%v: grid-selected HPF %g too far below exact %g", sm, hG, hE)
		}
	}
}

// TestReductionFigure3 rebuilds the worked example of Figure 3 (a star
// K_{1,3}) and checks that the exact optimum with λ=1, γ=0 recovers the
// 3-independent set {v2, v3, v4}.
func TestReductionFigure3(t *testing.T) {
	adj := [][]int{{1, 2, 3}, {0}, {0}, {0}}
	dict := textctx.NewDict()
	places, err := IndependentSetInstance(adj, dict)
	if err != nil {
		t.Fatal(err)
	}
	// d = 3; vertices 1..3 each get 2 pad places → 4 + 6 = 10 places.
	if len(places) != 10 {
		t.Fatalf("got %d places, want 10", len(places))
	}
	// Every original place has exactly d = 3 context items.
	for u := 0; u < 4; u++ {
		if got := places[u].Context.Len(); got != 3 {
			t.Errorf("|C(v%d)| = %d, want 3", u, got)
		}
	}
	ss := mustScores(t, geo.Pt(0, 0), places, ScoreOptions{Gamma: 0})
	ex, err := Exact(ss, Params{K: 3, Lambda: 1, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int(nil), ex.Indices...)
	sort.Ints(got)
	if !equalInts(got, []int{1, 2, 3}) {
		t.Errorf("optimum = %v, want the independent set [1 2 3]", got)
	}
}

// TestReductionDegrees: after padding, all original vertices have context
// size d and identical maximal pCS scores (the key invariant of the
// Theorem 4.1 proof).
func TestReductionDegrees(t *testing.T) {
	// A path 0—1—2—3 plus edge 1—3: degrees 1, 3, 2, 2 → d = 3.
	adj := [][]int{{1}, {0, 2, 3}, {1, 3}, {1, 2}}
	places, err := IndependentSetInstance(adj, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		if got := places[u].Context.Len(); got != 3 {
			t.Errorf("|C(v%d)| = %d, want 3", u, got)
		}
	}
	ss := mustScores(t, geo.Pt(0, 0), places, ScoreOptions{Gamma: 0})
	// pCS of all original vertices equal; pCS of pads strictly smaller.
	for u := 1; u < 4; u++ {
		if !almostEqual(ss.PCS[u], ss.PCS[0], 1e-9) {
			t.Errorf("pCS(v%d) = %g != pCS(v0) = %g", u, ss.PCS[u], ss.PCS[0])
		}
	}
	for i := 4; i < len(places); i++ {
		if ss.PCS[i] >= ss.PCS[0] {
			t.Errorf("pad %d has pCS %g ≥ original %g", i, ss.PCS[i], ss.PCS[0])
		}
	}
}

func TestReductionInputValidation(t *testing.T) {
	if _, err := IndependentSetInstance([][]int{{5}}, nil); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := IndependentSetInstance([][]int{{0}}, nil); err == nil {
		t.Error("self-loop accepted")
	}
	places, err := IndependentSetInstance(nil, nil)
	if err != nil || len(places) != 0 {
		t.Error("empty graph should give empty instance")
	}
}

// TestABPNotWorseOnAverage reflects the paper's Figure 11 finding that ABP
// achieves (marginally) better HPF than IAdU on average. Individual
// instances may go either way; we assert the aggregate.
func TestABPNotWorseOnAverage(t *testing.T) {
	q := geo.Pt(0, 0)
	var sumIA, sumAB float64
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		places := makePlaces(rng, q, 60, 10, 40, 0.2)
		ss := mustScores(t, q, places, ScoreOptions{Gamma: 0.5})
		p := Params{K: 10, Lambda: 0.5, Gamma: 0.5}
		ia, err := IAdU(ss, p)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := ABP(ss, p)
		if err != nil {
			t.Fatal(err)
		}
		sumIA += ia.HPF
		sumAB += ab.HPF
	}
	if sumAB < 0.97*sumIA {
		t.Errorf("ABP average HPF %g much worse than IAdU %g", sumAB/20, sumIA/20)
	}
}

func TestEvaluateDivConsistent(t *testing.T) {
	ss := defaultScoreSet(t, 20, 43)
	r := []int{1, 4, 9}
	lambda := 0.5
	got := ss.EvaluateDiv(r, lambda)
	// Direct: (1−λ)(k−1)·Σ rF + 2λ·Σ dF over pairs.
	var rel, div float64
	for _, i := range r {
		rel += ss.Places[i].Rel
	}
	for a := 0; a < len(r); a++ {
		for b := a + 1; b < len(r); b++ {
			_, _, sf := ss.Pair(r[a], r[b])
			div += 1 - sf
		}
	}
	want := (1-lambda)*rel + 2*lambda*div/float64(len(r)-1)
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("EvaluateDiv = %g, want %g", got, want)
	}
}

func BenchmarkIAdUK100(b *testing.B)  { benchGreedy(b, IAdU, 100, 10) }
func BenchmarkABPK100(b *testing.B)   { benchGreedy(b, ABP, 100, 10) }
func BenchmarkIAdUK400(b *testing.B)  { benchGreedy(b, IAdU, 400, 10) }
func BenchmarkABPK400(b *testing.B)   { benchGreedy(b, ABP, 400, 10) }
func BenchmarkABPK1000(b *testing.B)  { benchGreedy(b, ABP, 1000, 20) }
func BenchmarkIAdUK1000(b *testing.B) { benchGreedy(b, IAdU, 1000, 20) }

// BenchmarkABPDivK1000Lambda1 is the rank join's loose case: at λ = 1
// every ABP_D key is 2λ/(k−1)/2, so one band holds all K(K−1)/2 pairs.
func BenchmarkABPDivK1000Lambda1(b *testing.B) { benchGreedyAt(b, ABPDiv, 1000, 20, 1) }

func benchGreedy(b *testing.B, alg func(*ScoreSet, Params) (Selection, error), k, rk int) {
	benchGreedyAt(b, alg, k, rk, 0.5)
}

func benchGreedyAt(b *testing.B, alg func(*ScoreSet, Params) (Selection, error), k, rk int, lambda float64) {
	ss := defaultScoreSet(b, k, 1)
	p := Params{K: rk, Lambda: lambda, Gamma: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg(ss, p); err != nil {
			b.Fatal(err)
		}
	}
}
