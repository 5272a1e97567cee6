package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/textctx"
)

// abpRescan is the materialising ABP under rule, kept as the oracle the
// rank join is proven against: a full sort of the materialised pairs followed
// by a linear scan with lazy endpoint invalidation. Selections, gains and
// explain traces must match ABP's bit for bit.
func (rule pairRule) abpRescan(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	k := p.K
	ec := explain.FromContext(ctx)
	if k == 1 {
		return abpFirstPick(ec, ss, p.Lambda), nil
	}

	ps, err := abpScores(ctx, ss, rule, k, p.Lambda)
	if err != nil {
		return Selection{}, err
	}
	sortPairs(ps)

	r := make([]int, 0, k)
	used := make([]bool, n)
	round := 0
	for pi := range ps {
		pr := ps[pi]
		if len(r)+2 > k {
			break
		}
		// Lazy invalidation: skip pairs touching an already selected place.
		if used[pr.i] || used[pr.j] {
			continue
		}
		round++
		if ec != nil {
			// Runner-up: the next pair in the total order whose endpoints
			// are both unused before this selection.
			ru := -1
			for t := pi + 1; t < len(ps); t++ {
				q := ps[t]
				if !used[q.i] && !used[q.j] {
					ru = t
					break
				}
			}
			if ru >= 0 {
				explainRound(ec, ss, round, []int{int(pr.i), int(pr.j)}, pr.score,
					[]int{int(ps[ru].i), int(ps[ru].j)}, ps[ru].score)
			} else {
				explainRound(ec, ss, round, []int{int(pr.i), int(pr.j)}, pr.score, nil, 0)
			}
		}
		used[pr.i], used[pr.j] = true, true
		r = append(r, int(pr.i), int(pr.j))
	}
	if len(r) < k {
		r = abpOddTail(ec, newInstance(ss), rule, k, p.Lambda, round, r, used)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// abpScores scores all K(K−1)/2 pairs of ss under rule for result size k
// and weight λ: the rescan oracle's materialisation. It evaluates the
// rule's kernel — pairHPF or divScore — with the per-call constants
// hoisted on sF read row by row from an instance's kernel, so each score
// is bit-identical to PairHPF or divPair. The cancellation checkpoint is
// polled once per row.
func abpScores(ctx context.Context, ss *ScoreSet, rule pairRule, k int, lambda float64) ([]abpPair, error) {
	n := ss.K()
	kf := float64(k - 1)
	c1 := (1 - lambda) * float64(n-k) // pairHPF's relevance weight (1−λ)(K−k)
	d1, d2 := 1-lambda, 2*lambda/kf   // divScore's relevance and diversity weights
	ps := make([]abpPair, 0, n*(n-1)/2)
	in, sf := newInstance(ss), make([]float64, n)
	for i := 0; i < n; i++ {
		if err := checkpoint(ctx, "select:abp"); err != nil {
			return nil, err
		}
		in.Row(i, sf)
		ri, pi := ss.Places[i].Rel, ss.PFS[i]
		for j := i + 1; j < n; j++ {
			s := sf[j]
			var score float64
			if rule == ruleDiv {
				score = divScore(d1, d2, kf, ri, ss.Places[j].Rel, s)
			} else {
				score = pairHPF(c1, kf, lambda, ri, ss.Places[j].Rel, pi, ss.PFS[j], s)
			}
			ps = append(ps, abpPair{int32(i), int32(j), score})
		}
	}
	return ps, nil
}

// sortPairs ranks ps by abpBefore. The order is total, so the ranking —
// and every selection scanned from it — does not depend on the order ps
// arrives in, ties included.
func sortPairs(ps []abpPair) {
	slices.SortFunc(ps, func(a, b abpPair) int {
		switch {
		case abpBefore(a, b):
			return -1
		case abpBefore(b, a):
			return 1
		}
		return 0
	})
}

// greedyRules are the two pair rules, by the name of the ABP algorithm
// they serve.
var greedyRules = map[string]pairRule{"abp": ruleHPF, "abp-div": ruleDiv}

// abpRunTraced runs an ABP body under a fresh explain collector and
// returns the selection together with the recorded greedy rounds.
func abpRunTraced(t *testing.T, run func(context.Context, *ScoreSet, Params) (Selection, error), ss *ScoreSet, p Params) (Selection, []explain.GreedyRound) {
	t.Helper()
	col := explain.New()
	ctx := explain.WithCollector(context.Background(), col)
	sel, err := run(ctx, ss, p)
	if err != nil {
		t.Fatal(err)
	}
	return sel, col.Report().Rounds
}

// requireIdenticalRuns asserts that two (selection, trace) runs agree
// bit-for-bit: same indices, same total HPF bits, and per-round identical
// chosen sets, gains, runner-ups and runner-up gains.
func requireIdenticalRuns(t *testing.T, label string,
	aSel Selection, aRounds []explain.GreedyRound,
	bSel Selection, bRounds []explain.GreedyRound) {
	t.Helper()
	if !equalInts(aSel.Indices, bSel.Indices) {
		t.Fatalf("%s: selections differ: %v vs %v", label, aSel.Indices, bSel.Indices)
	}
	if math.Float64bits(aSel.HPF) != math.Float64bits(bSel.HPF) {
		t.Fatalf("%s: HPF bits differ: %v vs %v", label, aSel.HPF, bSel.HPF)
	}
	if len(aRounds) != len(bRounds) {
		t.Fatalf("%s: round counts differ: %d vs %d", label, len(aRounds), len(bRounds))
	}
	for i := range aRounds {
		a, b := aRounds[i], bRounds[i]
		if a.Round != b.Round || !equalInts(a.Chosen, b.Chosen) {
			t.Fatalf("%s round %d: chosen differ: %+v vs %+v", label, i+1, a, b)
		}
		if math.Float64bits(a.Gain) != math.Float64bits(b.Gain) {
			t.Fatalf("%s round %d: gain bits differ: %v vs %v", label, i+1, a.Gain, b.Gain)
		}
		if !equalInts(a.RunnerUp, b.RunnerUp) {
			t.Fatalf("%s round %d: runner-ups differ: %v vs %v", label, i+1, a.RunnerUp, b.RunnerUp)
		}
		if math.Float64bits(a.RunnerUpGain) != math.Float64bits(b.RunnerUpGain) {
			t.Fatalf("%s round %d: runner-up gain bits differ: %v vs %v",
				label, i+1, a.RunnerUpGain, b.RunnerUpGain)
		}
	}
}

// TestABPIncrementalEquivRescan is the property behind the rank join:
// the join must reproduce the sort-based rescan exactly — selections,
// gains and explain traces — under both pair rules, across instance
// sizes, result-size parities and the λ/γ weight grid. Both rank by the
// shared abpBefore total order and score with the same kernels, so any
// divergence is a join bug, not a float artefact.
func TestABPIncrementalEquivRescan(t *testing.T) {
	type cfg struct {
		n     int
		seeds []int64
		ks    []int
		ws    []float64 // λ and γ values crossed
	}
	cfgs := []cfg{
		{n: 10, seeds: []int64{1, 2, 3}, ks: []int{2, 3, 5, 9}, ws: []float64{0, 0.5, 1}},
		{n: 50, seeds: []int64{1, 2}, ks: []int{2, 5, 10, 11}, ws: []float64{0, 0.5, 1}},
		{n: 200, seeds: []int64{1}, ks: []int{10, 11}, ws: []float64{0.5}},
		{n: 999, seeds: []int64{1}, ks: []int{10, 11}, ws: []float64{0.5}},
		// λ = 1 makes ABP_D's bound flat: one band holds every pair, and
		// keeps only its first k·K + k (abpKeep).
		{n: 300, seeds: []int64{4}, ks: []int{2, 3, 8}, ws: []float64{1}},
	}
	for _, c := range cfgs {
		for _, seed := range c.seeds {
			for _, gamma := range c.ws {
				q := geo.Pt(0, 0)
				rng := rand.New(rand.NewSource(seed))
				places := makePlaces(rng, q, c.n, 12, 40, 0.2)
				ss := mustScores(t, q, places, ScoreOptions{Gamma: gamma})
				for _, k := range c.ks {
					if k >= c.n {
						continue
					}
					for _, lambda := range c.ws {
						for name, rule := range greedyRules {
							p := Params{K: k, Lambda: lambda, Gamma: gamma}
							hSel, hRounds := abpRunTraced(t, rule.abp, ss, p)
							rSel, rRounds := abpRunTraced(t, rule.abpRescan, ss, p)
							label := name + " " + formatABPLabel(c.n, seed, k, lambda, gamma)
							requireIdenticalRuns(t, label, hSel, hRounds, rSel, rRounds)
						}
					}
				}
			}
		}
	}
}

func formatABPLabel(n int, seed int64, k int, lambda, gamma float64) string {
	return "n=" + itoaTest(n) + " seed=" + itoaTest(int(seed)) + " k=" + itoaTest(k) +
		" λ=" + ftoaTest(lambda) + " γ=" + ftoaTest(gamma)
}

func itoaTest(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func ftoaTest(f float64) string {
	switch f {
	case 0:
		return "0"
	case 0.5:
		return "0.5"
	case 1:
		return "1"
	}
	return "?"
}

// TestABPVariantsAgreeOnTies pins the tie-break canonicalisation: when
// many pairs share one exact score (identical places → every pair scores
// the same), ABP and ABP_D must both fall back to the (i, j)-ascending
// order the rescan oracle scans under their rule, rather than whatever
// the heap happens to surface first.
func TestABPVariantsAgreeOnTies(t *testing.T) {
	q := geo.Pt(0, 0)
	ctxSet := textctx.NewSet(1, 2, 3)
	places := make([]Place, 24)
	for i := range places {
		places[i] = Place{ID: word(i), Loc: geo.Pt(1, 1), Rel: 0.7, Context: ctxSet}
	}
	ss := mustScores(t, q, places, ScoreOptions{Gamma: 0.5})
	for _, k := range []int{2, 5, 6, 23} {
		p := Params{K: k, Lambda: 0.5, Gamma: 0.5}
		for alg, rule := range greedyRules {
			want, err := rule.abpRescan(context.Background(), ss, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Select(Algorithm(alg), ss, p)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if !equalInts(got.Indices, want.Indices) {
				t.Errorf("k=%d: %s selected %v; the rescan selected %v", k, alg, got.Indices, want.Indices)
			}
		}
	}
}

// TestABPScoresMatchPairHPF pins the oracle's hoisted-constant loop to
// the pair scores' definitions: every materialised pair score must carry exactly
// the bits of ss.PairHPF(i, j, k, λ) under the HPF rule and of
// ss.divPair(i, j, k, λ) under the diversification rule. Any
// reassociation slipped into the inlined arithmetic shows up here before
// it can perturb a tie.
func TestABPScoresMatchPairHPF(t *testing.T) {
	q := geo.Pt(0, 0)
	rng := rand.New(rand.NewSource(23))
	places := makePlaces(rng, q, 80, 12, 40, 0.2)
	ss := mustScores(t, q, places, ScoreOptions{Gamma: 0.5})
	pair := map[pairRule]func(i, j, k int, lambda float64) float64{ruleHPF: ss.PairHPF, ruleDiv: ss.divPair}
	for name, rule := range greedyRules {
		for _, k := range []int{2, 7, 10} {
			for _, lambda := range []float64{0, 0.3, 1} {
				ps, err := abpScores(context.Background(), ss, rule, k, lambda)
				if err != nil {
					t.Fatal(err)
				}
				if len(ps) != 80*79/2 {
					t.Fatalf("%s k=%d λ=%v: %d pairs, want %d", name, k, lambda, len(ps), 80*79/2)
				}
				for _, p := range ps {
					want := pair[rule](int(p.i), int(p.j), k, lambda)
					if math.Float64bits(p.score) != math.Float64bits(want) {
						t.Fatalf("%s k=%d λ=%v: score(%d,%d) = %v, pair score = %v",
							name, k, lambda, p.i, p.j, p.score, want)
					}
				}
			}
		}
	}
}

// TestABPHeapOrderMatchesSort cross-checks the hand-rolled heap against
// an insertion sort under the same total order on adversarial inputs
// (duplicate scores, already-sorted, reversed): popping every element
// must yield the sorted sequence exactly.
func TestABPHeapOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		ps := make([]abpPair, n)
		for i := range ps {
			// Few distinct scores force heavy tie-breaking.
			ps[i] = abpPair{i: int32(rng.Intn(10)), j: int32(rng.Intn(10)), score: float64(rng.Intn(4))}
		}
		want := make([]abpPair, n)
		copy(want, ps)
		sortAbpPairs(want)
		h := make([]abpPair, n)
		copy(h, ps)
		abpHeapify(h)
		for i := 0; i < n; i++ {
			var top abpPair
			h, top = abpPop(h)
			if top != want[i] {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, top, want[i])
			}
		}
	}
}

func sortAbpPairs(ps []abpPair) {
	// Insertion sort — independent of the comparator usage under test.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && abpBefore(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// TestABPDivTieOrder: ABP_D ranks its pairs by the ABP total order, so on
// a tie-heavy λ = 1 instance — four prototypes repeated, so whole blocks
// of pairs score exactly alike — the ranking does not depend on the order
// the pairs arrive in, and the selection is the one an independent
// insertion sort under that order yields.
func TestABPDivTieOrder(t *testing.T) {
	q := geo.Pt(0, 0)
	protos := []Place{
		{Loc: geo.Pt(1, 1), Rel: 0.5, Context: textctx.NewSet(1, 2)},
		{Loc: geo.Pt(-1, 1), Rel: 0.5, Context: textctx.NewSet(2, 3)},
		{Loc: geo.Pt(1, -1), Rel: 0.5, Context: textctx.NewSet(4)},
		{Loc: geo.Pt(-1, -1), Rel: 0.5, Context: textctx.NewSet(1, 4)},
	}
	places := make([]Place, 24)
	for i := range places {
		places[i] = protos[i%len(protos)]
		places[i].ID = word(i)
	}
	ss := mustScores(t, q, places, ScoreOptions{Gamma: 0.5})
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{2, 5, 8, 11} {
		var ref []abpPair
		for i := 0; i < ss.K(); i++ {
			for j := i + 1; j < ss.K(); j++ {
				ref = append(ref, abpPair{int32(i), int32(j), ss.divPair(i, j, k, 1)})
			}
		}
		sortAbpPairs(ref)
		for trial := 0; trial < 5; trial++ {
			ps := append([]abpPair(nil), ref...)
			rng.Shuffle(len(ps), func(a, b int) { ps[a], ps[b] = ps[b], ps[a] })
			sortPairs(ps)
			for i := range ps {
				if ps[i] != ref[i] {
					t.Fatalf("k=%d trial %d: rank %d is %+v after a shuffle, %+v before", k, trial, i, ps[i], ref[i])
				}
			}
		}
		var want []int
		used := make([]bool, ss.K())
		for _, pr := range ref {
			if len(want)+2 > k {
				break
			}
			if !used[pr.i] && !used[pr.j] {
				used[pr.i], used[pr.j] = true, true
				want = append(want, int(pr.i), int(pr.j))
			}
		}
		got, err := ABPDiv(ss, Params{K: k, Lambda: 1, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got.Indices[:len(want)], want) {
			t.Errorf("k=%d: ABP_D selected %v, the total order selects %v first", k, got.Indices, want)
		}
	}
}
