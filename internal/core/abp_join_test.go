package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/pairs"
)

// joinInstance is a score set of n places assembled from random
// relevances, pFS and sF rather than computed by Step 1, so that the
// rank join meets values Step 1 rarely produces. levels > 0 quantises all
// three to that many steps, so whole blocks of keys, bounds and scores
// tie exactly. tiny scales them into the subnormal range. outside puts a
// quarter of the sF entries outside [0, 1] (negative or above 1), which
// only the custom spatial method allows. The set is of the custom method
// with γ = 1 and empty contexts, so that sF = pairs.Blend(0, 0, 1, sS) is
// the drawn sS matrix entry, bit for bit.
func joinInstance(rng *rand.Rand, n, levels int, tiny, outside bool) *ScoreSet {
	draw := func() float64 {
		x := rng.Float64()
		if levels > 0 {
			x = float64(rng.Intn(levels+1)) / float64(levels)
		}
		if tiny {
			x *= 0x1p-1040
		}
		return x
	}
	m := pairs.New(n)
	ss := &ScoreSet{Q: geo.Pt(0, 0), Gamma: 1, sp: customPairs{m}}
	ss.Places = make([]Place, n)
	ss.PCS, ss.PSS, ss.PFS = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ss.Places {
		ss.Places[i] = Place{ID: word(i), Loc: geo.Pt(rng.Float64(), rng.Float64()), Rel: draw()}
		ss.PCS[i], ss.PSS[i] = draw()*float64(n-1), draw()*float64(n-1)
		ss.PFS[i] = draw() * float64(n-1)
	}
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for t := range row {
			row[t] = draw()
			if outside && rng.Intn(4) == 0 {
				row[t] = 2*row[t] - 1 + float64(rng.Intn(2))
			}
		}
	}
	ss.customLoose = !unitInterval(m)
	return ss
}

// FuzzABPRankJoin: the rank join selects exactly what sorting all pairs
// and scanning them selects — indices, HPF bits and every explain round,
// runner-ups and gains included, bit for bit — under both pair rules, on
// random and tie-heavy instances, subnormal ones and ones whose sF leaves
// [0, 1].
func FuzzABPRankJoin(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(10), uint8(2), uint8(0))
	f.Add(int64(2), uint8(30), uint8(1), uint8(7), uint8(4), uint8(0))
	f.Add(int64(3), uint8(25), uint8(2), uint8(6), uint8(0), uint8(0))
	f.Add(int64(4), uint8(50), uint8(3), uint8(11), uint8(1), uint8(0))
	f.Add(int64(5), uint8(20), uint8(0), uint8(5), uint8(3), uint8(1))
	f.Add(int64(6), uint8(33), uint8(2), uint8(9), uint8(2), uint8(2))
	f.Add(int64(7), uint8(12), uint8(4), uint8(3), uint8(4), uint8(3))
	// λ = 1 on 62 places with k = 3: ABP_D's flat bound puts all 1 891
	// pairs in one band, which keeps 189 (abpKeep).
	f.Add(int64(8), uint8(59), uint8(0), uint8(63), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nb, levels, kb, lb, flags uint8) {
		n := 3 + int(nb)%60
		k := 1 + int(kb)%(n-1)
		lambda := float64(lb%5) / 4
		rng := rand.New(rand.NewSource(seed))
		ss := joinInstance(rng, n, int(levels)%6, flags&2 != 0, flags&1 != 0)
		p := Params{K: k, Lambda: lambda, Gamma: ss.Gamma}
		for name, rule := range greedyRules {
			jSel, jRounds := abpRunTraced(t, rule.abp, ss, p)
			rSel, rRounds := abpRunTraced(t, rule.abpRescan, ss, p)
			requireIdenticalRuns(t, name, jSel, jRounds, rSel, rRounds)
		}
	})
}

// TestABPJoinBound is what the rank join's slack rests on: on random,
// tie-heavy and subnormal instances, under both rules, across λ and k,
// no pair's score exceeds abpBound of the key it is enumerated under.
// It also counts the pairs whose score exceeds the bare key, which only
// rounding allows: the slack is needed, not decorative.
func TestABPJoinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	over := 0
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(70)
		ss := joinInstance(rng, n, trial%6, trial%7 == 3, false)
		if trial%5 == 4 {
			ss = defaultScoreSet(t, n, int64(trial))
		}
		for name, rule := range greedyRules {
			pair := map[pairRule]func(i, j, k int, lambda float64) float64{ruleHPF: ss.PairHPF, ruleDiv: ss.divPair}[rule]
			for _, lambda := range []float64{0, 0.3, 0.5, 1} {
				k := 2 + rng.Intn(n-2)
				jn := newABPJoin(context.Background(), newInstance(ss), rule, k, lambda, make([]bool, n))
				for r := 0; r < n; r++ {
					for c := r + 1; c < n; c++ {
						key := jn.rows[r].a + jn.rows[c].a
						i, j := int(jn.rows[r].i), int(jn.rows[c].i)
						s := pair(min(i, j), max(i, j), k, lambda)
						if s > abpBound(key) {
							t.Fatalf("trial %d %s n=%d k=%d λ=%v: score(%d, %d) = %v above the bound %v of key %v",
								trial, name, n, k, lambda, i, j, s, abpBound(key), key)
						}
						if s > key {
							over++
						}
					}
				}
			}
		}
	}
	t.Logf("%d pair scores above their bare key", over)
}

// TestABPJoinBands drives the join's bands down arbitrary thresholds and
// checks the frontier invariant the yield test rests on: every pair is
// enumerated exactly once, in the first band whose threshold its key
// reaches, and after each band rest is the largest key of the pairs left.
// The join keeps every pair it enumerates here: which pairs a band keeps
// is TestABPJoinBandKeep's.
func TestABPJoinBands(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(50)
		ss := joinInstance(rng, n, trial%4, false, false)
		rule := pairRule(trial % 2)
		jn := newABPJoin(context.Background(), newInstance(ss), rule, 2+rng.Intn(n-2), 0.5, make([]bool, n))
		jn.keep = n * n
		share := make([]float64, n) // a by place index
		for _, row := range jn.rows {
			share[row.i] = row.a
		}
		key := func(i, j int) float64 { return share[i] + share[j] }
		seen := map[[2]int32]bool{}
		for bands := 0; !math.IsInf(jn.rest, -1); bands++ {
			if bands > n*n {
				t.Fatalf("trial %d: no end after %d bands", trial, bands)
			}
			tau := jn.rest - rng.Float64()*math.Abs(jn.rest)/4
			if rng.Intn(4) == 0 {
				tau = jn.rest
			}
			before := len(jn.heaps)
			if err := jn.band(tau); err != nil {
				t.Fatal(err)
			}
			if len(jn.heaps) > before {
				for _, p := range jn.heaps[len(jn.heaps)-1] {
					pk := [2]int32{p.i, p.j}
					if seen[pk] {
						t.Fatalf("trial %d: pair %v enumerated twice", trial, pk)
					}
					seen[pk] = true
					if kk := key(int(p.i), int(p.j)); kk < tau {
						t.Fatalf("trial %d: pair %v of key %v enumerated at threshold %v", trial, pk, kk, tau)
					}
				}
			}
			if jn.rest >= tau {
				t.Fatalf("trial %d: rest %v not below the threshold %v", trial, jn.rest, tau)
			}
			left := math.Inf(-1)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if !seen[[2]int32{int32(i), int32(j)}] {
						left = max(left, key(i, j))
					}
				}
			}
			if left != jn.rest {
				t.Fatalf("trial %d: rest %v, largest key left %v", trial, jn.rest, left)
			}
		}
		if len(seen) != n*(n-1)/2 {
			t.Fatalf("trial %d: %d pairs enumerated, want %d", trial, len(seen), n*(n-1)/2)
		}
	}
}

// TestABPJoinBandKeep: a band that enumerates more than jn.keep pairs
// keeps exactly the first jn.keep of them in abpBefore order, the pairs
// touching a used place left out, whether its pairs are scored one at a
// time or from whole kernel rows.
func TestABPJoinBandKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(60)
		ss := joinInstance(rng, n, trial%4, false, false)
		if trial%3 == 2 {
			ss = defaultScoreSet(t, n, int64(trial))
		}
		rule := pairRule(trial % 2)
		k := 2 + rng.Intn(min(n-2, 4))
		lambda := float64(rng.Intn(5)) / 4
		used := make([]bool, n)
		for i := range used {
			used[i] = rng.Intn(8) == 0
		}
		jn := newABPJoin(context.Background(), newInstance(ss), rule, k, lambda, used)
		jn.keep = 1 + rng.Intn(n*(n-1)/4)
		pair := map[pairRule]func(i, j, k int, lambda float64) float64{ruleHPF: ss.PairHPF, ruleDiv: ss.divPair}[rule]
		var want []abpPair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !used[i] && !used[j] {
					want = append(want, abpPair{int32(i), int32(j), pair(i, j, k, lambda)})
				}
			}
		}
		sortPairs(want)
		want = want[:min(len(want), jn.keep)]
		if err := jn.band(math.Inf(-1)); err != nil {
			t.Fatal(err)
		}
		var got []abpPair
		if len(jn.heaps) == 1 {
			for h := jn.heaps[0]; len(h) > 0; {
				var p abpPair
				h, p = abpPop(h)
				got = append(got, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: the band kept %d pairs, want %d (keep %d)", trial, len(got), len(want), jn.keep)
		}
		for r := range want {
			if got[r] != want[r] || math.Float64bits(got[r].score) != math.Float64bits(want[r].score) {
				t.Fatalf("trial %d: kept pair %d is %+v, want %+v", trial, r, got[r], want[r])
			}
		}
	}
}
