package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/textctx"
)

// studySet builds a scored set with two dominant groups and a rare tail.
func studySet(t testing.TB) *core.ScoreSet {
	t.Helper()
	d := textctx.NewDict()
	var places []core.Place
	add := func(id string, x, y float64, words ...string) {
		places = append(places, core.Place{
			ID: id, Loc: geo.Pt(x, y), Rel: 0.7,
			Context: textctx.NewSetFromStrings(d, words),
		})
	}
	for i := 0; i < 30; i++ {
		add("hist", 2, 0.1*float64(i%5), "history", "museum")
	}
	for i := 0; i < 25; i++ {
		add("art", -2, 0.1*float64(i%5), "art", "museum")
	}
	for i := 0; i < 10; i++ {
		add("rare", 0, 2+0.1*float64(i), "oddity-"+string(rune('a'+i)))
	}
	ss, err := core.ComputeScores(geo.Pt(0, 0), places, core.ScoreOptions{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// Selections over studySet: history 0..29, art 30..54, rares 55..64.
var (
	propSel = []int{0, 1, 2, 3, 30, 31, 32, 55}     // proportional-ish
	histSel = []int{0, 1, 2, 3, 4, 5, 6, 7}         // all history
	rareSel = []int{55, 56, 57, 58, 59, 60, 61, 62} // all rares
)

func TestFrequentItemKLOrdering(t *testing.T) {
	ss := studySet(t)
	klProp := FrequentItemKL(ss, propSel)
	klHist := FrequentItemKL(ss, histSel)
	klRare := FrequentItemKL(ss, rareSel)
	// The proportional selection is the least misleading. Note the
	// rare-only selection carries no frequent items at all, so smoothing
	// reduces it to a uniform prior — "knows nothing" scores better on KL
	// than "confidently biased"; RareShare is the signal that separates
	// it (see the composite check below).
	if !(klProp < klHist && klProp < klRare) {
		t.Errorf("KL ordering wrong: prop %g, hist %g, rare %g", klProp, klHist, klRare)
	}
	if !math.IsInf(FrequentItemKL(ss, nil), 1) {
		t.Error("empty R should have infinite KL")
	}
	// Composite (inference match + cleanliness) orders all three the way
	// a reader of the list would.
	comp := func(r []int) float64 {
		return 0.6/(1+FrequentItemKL(ss, r)) + 0.4*(1-RareShare(ss, r))
	}
	if !(comp(propSel) > comp(histSel) && comp(histSel) > comp(rareSel)) {
		t.Errorf("composite ordering wrong: %g, %g, %g",
			comp(propSel), comp(histSel), comp(rareSel))
	}
}

func TestRareShare(t *testing.T) {
	ss := studySet(t)
	if got := RareShare(ss, rareSel); got != 1 {
		t.Errorf("rare selection RareShare = %g, want 1", got)
	}
	if got := RareShare(ss, histSel); got != 0 {
		t.Errorf("history selection RareShare = %g, want 0", got)
	}
	if got := RareShare(ss, nil); got != 1 {
		t.Errorf("empty RareShare = %g, want 1", got)
	}
}

func TestDominanceAgreement(t *testing.T) {
	ss := studySet(t)
	// propSel repeats history most, then art — matching S's order.
	if got := DominanceAgreement(ss, propSel); got < 0.8 {
		t.Errorf("proportional dominance = %g, want ≥ 0.8", got)
	}
	// A rare-only selection identifies nothing.
	if got := DominanceAgreement(ss, rareSel); got != 0 {
		t.Errorf("rare dominance = %g, want 0", got)
	}
}

func TestTypeCoverage(t *testing.T) {
	ss := studySet(t)
	if a, b := TypeCoverage(ss, propSel), TypeCoverage(ss, rareSel); a <= b {
		t.Errorf("coverage: prop %g not above rare %g", a, b)
	}
	if got := TypeCoverage(ss, nil); got != 0 {
		t.Errorf("empty coverage = %g", got)
	}
}

func TestDirectionalCoverage(t *testing.T) {
	ss := studySet(t)
	// propSel spans east and west like S; histSel is east-only.
	if a, b := DirectionalCoverage(ss, propSel, 8), DirectionalCoverage(ss, histSel, 8); a <= b {
		t.Errorf("directional: prop %g not above hist %g", a, b)
	}
	if got := DirectionalCoverage(ss, nil, 8); got != 0 {
		t.Error("empty directional coverage not 0")
	}
	if got := DirectionalCoverage(ss, propSel, 0); got != 0 {
		t.Error("zero sectors not 0")
	}
}

func TestDiversityAndRelevance(t *testing.T) {
	ss := studySet(t)
	if a, b := Diversity(ss, propSel), Diversity(ss, histSel); a <= b {
		t.Errorf("diversity: prop %g not above hist %g", a, b)
	}
	if got := Diversity(ss, []int{1}); got != 0 {
		t.Error("singleton diversity not 0")
	}
	if got := MeanRelevance(ss, histSel); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("MeanRelevance = %g", got)
	}
	if got := MeanRelevance(ss, nil); got != 0 {
		t.Error("empty relevance not 0")
	}
}

func TestEvaluateReport(t *testing.T) {
	ss := studySet(t)
	rep := Evaluate(ss, propSel)
	if rep.InferenceMatch <= 0 || rep.InferenceMatch > 1 {
		t.Errorf("InferenceMatch = %g", rep.InferenceMatch)
	}
	if math.Abs(rep.InferenceMatch-1/(1+rep.FrequentKL)) > 1e-12 {
		t.Error("InferenceMatch inconsistent with FrequentKL")
	}
	for name, v := range map[string]float64{
		"RareShare": rep.RareShare, "Dominance": rep.Dominance,
		"TypeCoverage": rep.TypeCoverage, "DirectionalCoverage": rep.DirectionalCoverage,
		"Diversity": rep.Diversity, "MeanRelevance": rep.MeanRelevance,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s = %g outside [0, 1]", name, v)
		}
	}
}

// randomSet builds a scored set of n places drawing up to 7 words each
// from a skewed vocabulary (vocab ≤ 0 gives every place words of its own,
// so nothing is frequent).
func randomSet(t testing.TB, rng *rand.Rand, n, vocab int) *core.ScoreSet {
	t.Helper()
	d := textctx.NewDict()
	places := make([]core.Place, n)
	for i := range places {
		words := make([]string, rng.Intn(8))
		for j := range words {
			if vocab <= 0 {
				words[j] = fmt.Sprintf("own-%d-%d", i, j)
			} else {
				words[j] = fmt.Sprintf("w%d", int(float64(vocab)*rng.Float64()*rng.Float64()))
			}
		}
		places[i] = core.Place{
			ID: fmt.Sprintf("p%d", i), Loc: geo.Pt(rng.Float64()*10, rng.Float64()*10),
			Rel: rng.Float64(), Context: textctx.NewSetFromStrings(d, words),
		}
	}
	ss, err := core.ComputeScores(geo.Pt(5, 5), places, core.ScoreOptions{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestEvaluateMatchesPerMetricFunctions: Evaluate shares one support scan
// across the item diagnostics; every field must still be bitwise what the
// exported per-metric function returns on its own — including for an
// empty and a one-place R and for sets with no frequent item at all.
func TestEvaluateMatchesPerMetricFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(250)
		vocab := 1 + rng.Intn(150)
		if trial%10 == 0 {
			vocab = 0 // all-rare contexts
		}
		ss := randomSet(t, rng, n, vocab)
		k := trial % 3 // 0, 1, then a random size
		if k == 2 {
			k = 2 + rng.Intn(12)
		}
		if k > n {
			k = n
		}
		r := rng.Perm(n)[:k]
		got := Evaluate(ss, r)
		kl := FrequentItemKL(ss, r)
		want := Report{
			FrequentKL: kl, InferenceMatch: 1 / (1 + kl),
			RareShare: RareShare(ss, r), Dominance: DominanceAgreement(ss, r),
			TypeCoverage:        TypeCoverage(ss, r),
			DirectionalCoverage: DirectionalCoverage(ss, r, 8),
			Diversity:           Diversity(ss, r), MeanRelevance: MeanRelevance(ss, r),
		}
		g := [...]float64{got.FrequentKL, got.InferenceMatch, got.RareShare, got.Dominance,
			got.TypeCoverage, got.DirectionalCoverage, got.Diversity, got.MeanRelevance}
		w := [...]float64{want.FrequentKL, want.InferenceMatch, want.RareShare, want.Dominance,
			want.TypeCoverage, want.DirectionalCoverage, want.Diversity, want.MeanRelevance}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("trial %d (n=%d vocab=%d k=%d): Evaluate = %+v, per-metric = %+v", trial, n, vocab, k, got, want)
			}
		}
	}
}

// BenchmarkEvaluate is the cold diagnostics cost a cache miss pays, at the
// two retrieval sizes the benchmark workloads use.
func BenchmarkEvaluate(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("K=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			ss := randomSet(b, rng, n, 400)
			r := rng.Perm(n)[:10]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = Evaluate(ss, r)
			}
		})
	}
}

var sink Report
