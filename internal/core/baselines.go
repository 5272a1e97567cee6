package core

import (
	"context"
	"math/rand"
	"sort"
)

// TopK returns the k most relevant places (the paper's S_k baseline from
// the user study: top-k by rF with no diversification).
func TopK(ss *ScoreSet, p Params) (Selection, error) {
	return Select(AlgTopK, ss, p)
}

func topKCtx(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	// TopK is O(K log K) — a single checkpoint covers it.
	if err := checkpoint(ctx, "select:topk"); err != nil {
		return Selection{}, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return ss.Places[idx[a]].Rel > ss.Places[idx[b]].Rel
	})
	r := idx[:p.K]
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// RandomSelect returns k places drawn uniformly without replacement — the
// random-selection baseline the abstract's user evaluation refers to.
func RandomSelect(ss *ScoreSet, p Params, seed int64) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	r := perm[:p.K]
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// divPair is the pairwise objective of the diversification framework of
// Cai et al. [5] (MaxSum relevance + diversity, no proportionality term):
//
//	f(u, v) = ((1−λ)·(rF(u) + rF(v)) + 2λ·dF(u, v)) / (k−1)
//
// where dF = 1 − sF combines Jaccard distance and Ptolemy's diversity.
// Summing f over all pairs of R gives (1−λ)·Σ rF + (2λ/(k−1))·Σ dF, so
// both terms live on the same k-proportional scale and λ genuinely trades
// them off.
func (ss *ScoreSet) divPair(i, j, k int, lambda float64) float64 {
	kf := float64(k - 1)
	_, _, sf := ss.Pair(i, j)
	return divScore(1-lambda, 2*lambda/kf, kf, ss.Places[i].Rel, ss.Places[j].Rel, sf)
}

// divScore is divPair from its parts: d1 = 1−λ, d2 = 2λ/(k−1), kf = k−1,
// the two relevances and sF of the pair. divPair and the greedy loops
// both evaluate it, so their scores agree bit for bit.
func divScore(d1, d2, kf, ri, rj, sf float64) float64 {
	// The conversion rounds the product on its own, so no platform fuses
	// it into a multiply-add (see pairs.Blend).
	return d1*(ri+rj)/kf + float64(d2*(1-sf))
}

// EvaluateDiv computes the diversification objective of R (relevance plus
// pairwise dissimilarity), for comparing diversified baselines.
func (ss *ScoreSet) EvaluateDiv(r []int, lambda float64) float64 {
	var total float64
	for a := 0; a < len(r); a++ {
		for b := a + 1; b < len(r); b++ {
			total += ss.divPair(r[a], r[b], len(r), lambda)
		}
	}
	return total
}

// IAdUDiv is the diversification-only variant of IAdU (the framework of
// Cai et al. [5] that the paper adapts): greedy insertion maximising
// relevance + dissimilarity to the current R, with no proportional-to-S
// term. It is IAdU's body with divPair as the pair score. Used as the
// ABP_D/IAdU_D baseline in the user evaluation.
func IAdUDiv(ss *ScoreSet, p Params) (Selection, error) {
	return Select(AlgIAdUDiv, ss, p)
}

// ABPDiv is the diversification-only variant of ABP: ABP's body with
// divPair as the pair score, so the best unused pair by the
// diversification objective comes from the same rank join, under the
// bound of divPair, and equal-score pairs select by the same total order.
func ABPDiv(ss *ScoreSet, p Params) (Selection, error) {
	return Select(AlgABPDiv, ss, p)
}

// Exact solves Problem 1 by enumerating every k-subset of S and returning
// the one with maximum HPF(R). It is exponential and guarded: instances
// with C(K, k) above ~2 million subsets return ErrTooLarge. Used to
// validate the greedy algorithms' approximation quality on small inputs.
func Exact(ss *ScoreSet, p Params) (Selection, error) {
	return Select(AlgExact, ss, p)
}

func exactCtx(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	if binomialExceeds(n, p.K, 2_000_000) {
		return Selection{}, ErrTooLarge
	}
	k := p.K
	cur := make([]int, k)
	best := Selection{HPF: negInf}
	var evals int
	var ctxErr error
	// rec returns false to abort the enumeration after a checkpoint fires.
	var rec func(start, depth int) bool
	rec = func(start, depth int) bool {
		if depth == k {
			if evals%4096 == 0 {
				if err := checkpoint(ctx, "select:exact"); err != nil {
					ctxErr = err
					return false
				}
			}
			evals++
			if h := ss.Evaluate(cur, p.Lambda).Total; h > best.HPF {
				best.HPF = h
				best.Indices = append([]int(nil), cur...)
			}
			return true
		}
		for i := start; i <= n-(k-depth); i++ {
			cur[depth] = i
			if !rec(i+1, depth+1) {
				return false
			}
		}
		return true
	}
	if !rec(0, 0) {
		return Selection{}, ctxErr
	}
	return best, nil
}

const negInf = -1e308

// binomialExceeds reports whether C(n, k) > limit, without overflowing.
func binomialExceeds(n, k, limit int) bool {
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c *= float64(n-i) / float64(i+1)
		if c > float64(limit) {
			return true
		}
	}
	return false
}
