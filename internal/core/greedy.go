package core

import (
	"context"
	"math"

	"repro/internal/explain"
)

// explainRound records one greedy round on the context-carried collector,
// resolving place IDs from the score set. Call sites gate the extra work
// of finding runner-ups on ec != nil; this helper only shapes the event.
func explainRound(ec *explain.Collector, ss *ScoreSet, round int, chosen []int, gain float64, runnerUp []int, runnerUpGain float64) {
	r := explain.GreedyRound{Round: round, Chosen: chosen, Gain: gain}
	for _, i := range chosen {
		r.ChosenIDs = append(r.ChosenIDs, ss.Places[i].ID)
	}
	if len(runnerUp) > 0 {
		r.RunnerUp = runnerUp
		r.RunnerUpGain = runnerUpGain
		for _, i := range runnerUp {
			r.RunnerUpIDs = append(r.RunnerUpIDs, ss.Places[i].ID)
		}
	}
	ec.Round(r)
}

// pairRule is the pair objective a greedy body maximises. The paper
// adapts IAdU and ABP from the diversification framework of Cai et al.
// [5]: the two greedies stay the same and only the pair score changes, so
// each has one body, parameterised by the rule.
type pairRule uint8

const (
	ruleHPF pairRule = iota // HPF(p_i, p_j) of Eq. 15: IAdU and ABP
	ruleDiv                 // divPair: IAdU_D and ABP_D
)

// addScores adds rule's score of the pair (p_i, p_j), for result size
// k ≥ 2 and weight λ, to contrib[i] for every unused place i. Each rule
// has its own loop, so the per-pair call stays direct.
func (rule pairRule) addScores(ss *ScoreSet, contrib []float64, used []bool, j, k int, lambda float64) {
	if rule == ruleDiv {
		for i := range contrib {
			if !used[i] {
				contrib[i] += ss.divPair(i, j, k, lambda)
			}
		}
		return
	}
	for i := range contrib {
		if !used[i] {
			contrib[i] += ss.PairHPF(i, j, k, lambda)
		}
	}
}

// IAdU implements the Incremental Add and Update greedy algorithm
// (Section 5, adapted from Cai et al.): it iteratively adds to R the place
// with the largest contribution cHPF (Eq. 17) — the relevance score for
// the first pick, then Σ_{p_j∈R} HPF(p_i, p_j) — updating the remaining
// contributions incrementally after every insertion. Complexity
// O(K·k + K log K); a 4-approximation when HPF satisfies the triangle
// inequality (Theorem 8.2).
func IAdU(ss *ScoreSet, p Params) (Selection, error) {
	return Select(AlgIAdU, ss, p)
}

// iadu runs IAdU with the contributions summed from rule's pair scores.
func (rule pairRule) iadu(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	k := p.K
	r := make([]int, 0, k)
	used := make([]bool, n)
	ec := explain.FromContext(ctx)

	// First pick: R is empty, so cHPF(p_i) = rF(p_i).
	best := 0
	for i := 1; i < n; i++ {
		if ss.Places[i].Rel > ss.Places[best].Rel {
			best = i
		}
	}
	r = append(r, best)
	used[best] = true
	if ec != nil {
		// Runner-up of the first pick: the second-largest relevance.
		ru := -1
		for i := 0; i < n; i++ {
			if i != best && (ru < 0 || ss.Places[i].Rel > ss.Places[ru].Rel) {
				ru = i
			}
		}
		if ru >= 0 {
			explainRound(ec, ss, 1, []int{best}, ss.Places[best].Rel, []int{ru}, ss.Places[ru].Rel)
		} else {
			explainRound(ec, ss, 1, []int{best}, ss.Places[best].Rel, nil, 0)
		}
	}
	if k == 1 {
		return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
	}

	// Contributions of all remaining places against the current R,
	// maintained incrementally: adding p_new adds the pair score of
	// (p_i, p_new) to every candidate's contribution.
	contrib := make([]float64, n)
	rule.addScores(ss, contrib, used, best, k, p.Lambda)
	for len(r) < k {
		// Each iteration costs O(K); polling here bounds the cancellation
		// latency by one outer iteration.
		if err := checkpoint(ctx, "select:iadu"); err != nil {
			return Selection{}, err
		}
		bi := -1
		for i := 0; i < n; i++ {
			if !used[i] && (bi < 0 || contrib[i] > contrib[bi]) {
				bi = i
			}
		}
		if ec != nil {
			// Runner-up: the second-largest contribution among candidates.
			ru := -1
			for i := 0; i < n; i++ {
				if !used[i] && i != bi && (ru < 0 || contrib[i] > contrib[ru]) {
					ru = i
				}
			}
			if ru >= 0 {
				explainRound(ec, ss, len(r)+1, []int{bi}, contrib[bi], []int{ru}, contrib[ru])
			} else {
				explainRound(ec, ss, len(r)+1, []int{bi}, contrib[bi], nil, 0)
			}
		}
		r = append(r, bi)
		used[bi] = true
		if len(r) == k {
			break
		}
		rule.addScores(ss, contrib, used, bi, k, p.Lambda)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// abpPair is one materialised candidate pair: endpoint indices into the
// score set plus the pair rule's score of (p_i, p_j).
type abpPair struct {
	i, j  int32
	score float64
}

// abpBefore is the total order ABP ranks pairs by: score descending, ties
// broken by (i, j) ascending. A total order (rather than the raw score
// comparison alone) makes equal-score selections identical across the
// heap and the sort-based rescan oracle — the invariant the abp ≡ rescan
// property tests pin down.
func abpBefore(a, b abpPair) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// abpScores scores all O(K²) pairs under rule and returns the keep pairs
// that rank first under abpBefore, in no particular order — or all of
// them, when keep is 0 or over an eighth of K(K−1)/2 (selecting so long a
// prefix costs more than it saves). Both the heap-based ABP and the
// sort-based rescan oracle build their ranking from this one function, so
// their inputs are bit-identical by construction. The cancellation
// checkpoint is polled once per row.
//
// A bounded keep collects pairs in a buffer of 2·keep: when it fills,
// abpSelect moves the keep best to its front, and from then on a pair is
// collected only if it ranks before the keep-th best so far (cut). The
// kept pairs are exactly the first keep of the whole ranking, held in
// 2·keep·16 bytes instead of K(K−1)/2·16, at O(1) amortised per pair.
//
// Each rule has its own inner loop, which evaluates the rule's kernel —
// pairHPF or divScore — with the per-call constants hoisted and the sF
// matrix walked row-wise, so each score is bit-identical to PairHPF or
// divPair: only the per-pair struct loads, matrix index arithmetic,
// recomputed constants and the rule branch are gone. This matters
// because materialisation is most of ABP's time. ss must hold its sF
// triangle (SelectCtx refills a compact set first).
func abpScores(ctx context.Context, ss *ScoreSet, rule pairRule, k int, lambda float64, keep int) ([]abpPair, error) {
	n := ss.K()
	size := n * (n - 1) / 2
	if keep > 0 && 8*keep <= size {
		size = 2 * keep
	} else {
		keep = 0
	}
	kf := float64(k - 1)
	c1 := (1 - lambda) * float64(n-k) // pairHPF's relevance weight (1−λ)(K−k)
	d1, d2 := 1-lambda, 2*lambda/kf   // divScore's relevance and diversity weights
	rels := make([]float64, n)
	for i := range rels {
		rels[i] = ss.Places[i].Rel
	}
	pfs := ss.PFS
	ps := make([]abpPair, 0, size)
	cut := abpPair{score: math.Inf(-1)} // every pair ranks before it until ps first fills
	for i := 0; i < n; i++ {
		if err := checkpoint(ctx, "select:abp"); err != nil {
			return nil, err
		}
		ri, pi, row := rels[i], pfs[i], ss.SF.Row(i)
		if rule == ruleDiv {
			for t, s := range row {
				j := i + 1 + t
				if p := (abpPair{int32(i), int32(j), divScore(d1, d2, kf, ri, rels[j], s)}); abpBefore(p, cut) {
					ps, cut = abpKeep(ps, cut, p, keep)
				}
			}
			continue
		}
		for t, s := range row {
			j := i + 1 + t
			if p := (abpPair{int32(i), int32(j), pairHPF(c1, kf, lambda, ri, rels[j], pi, pfs[j], s)}); abpBefore(p, cut) {
				ps, cut = abpKeep(ps, cut, p, keep)
			}
		}
	}
	if keep > 0 && len(ps) > keep {
		abpSelect(ps, keep)
		ps = ps[:keep]
	}
	return ps, nil
}

// abpKeep collects p, which ranks before cut. A bounded buffer (keep > 0,
// allocated with capacity 2·keep) that fills is cut back to its keep best
// pairs, and the keep-th of them becomes the new cut.
func abpKeep(ps []abpPair, cut, p abpPair, keep int) ([]abpPair, abpPair) {
	if ps = append(ps, p); keep > 0 && len(ps) == cap(ps) {
		abpSelect(ps, keep)
		return ps[:keep], ps[keep-1]
	}
	return ps, cut
}

// abpSelect reorders ps so that its first m pairs are the m that rank
// first under abpBefore, with the m-th of them at ps[m−1] (quickselect
// with a median-of-three pivot; 1 ≤ m ≤ len(ps)).
func abpSelect(ps []abpPair, m int) {
	lo, hi := 0, len(ps)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		// Median of three to ps[hi], the pivot.
		if abpBefore(ps[mid], ps[lo]) {
			ps[mid], ps[lo] = ps[lo], ps[mid]
		}
		if abpBefore(ps[hi], ps[lo]) {
			ps[hi], ps[lo] = ps[lo], ps[hi]
		}
		if abpBefore(ps[mid], ps[hi]) {
			ps[mid], ps[hi] = ps[hi], ps[mid]
		}
		pivot, store := ps[hi], lo
		for i := lo; i < hi; i++ {
			if abpBefore(ps[i], pivot) {
				ps[i], ps[store] = ps[store], ps[i]
				store++
			}
		}
		ps[store], ps[hi] = ps[hi], ps[store]
		switch {
		case store == m-1:
			return
		case store < m-1:
			lo = store + 1
		default:
			hi = store - 1
		}
	}
}

// abpSiftDown restores the max-heap property (w.r.t. abpBefore) below
// position i. Hand-rolled rather than container/heap: the interface-free
// inner loop is what makes heap maintenance cheaper than sorting the
// whole pair list.
func abpSiftDown(h []abpPair, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		best := l
		if r := l + 1; r < len(h) && abpBefore(h[r], h[l]) {
			best = r
		}
		if !abpBefore(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// abpHeapify builds the max-heap in place in O(n).
func abpHeapify(h []abpPair) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		abpSiftDown(h, i)
	}
}

// abpPop removes and returns the best pair; the returned slice aliases
// the input with the last slot freed.
func abpPop(h []abpPair) ([]abpPair, abpPair) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if len(h) > 0 {
		abpSiftDown(h, 0)
	}
	return h, top
}

// abpPush reinserts a pair (used by the explain runner-up peek).
func abpPush(h []abpPair, p abpPair) []abpPair {
	h = append(h, p)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !abpBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// abpFirstPick handles the degenerate k=1 instance, under either rule:
// rank by relevance alone.
func abpFirstPick(ec *explain.Collector, ss *ScoreSet, lambda float64) Selection {
	best := 0
	for i := 1; i < ss.K(); i++ {
		if ss.Places[i].Rel > ss.Places[best].Rel {
			best = i
		}
	}
	r := []int{best}
	if ec != nil {
		explainRound(ec, ss, 1, r, ss.Places[best].Rel, nil, 0)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, lambda).Total}
}

// abpOddTail completes an odd-k result: the unused place contributing the
// most to the current R, with the second-best tracked for the explain
// trace. Shared with the rescan oracle so the odd-k tail (including its
// runner-up bookkeeping) cannot drift between them.
func abpOddTail(ec *explain.Collector, ss *ScoreSet, rule pairRule, k int, lambda float64, round int, r []int, used []bool) []int {
	c := make([]float64, ss.K())
	for _, j := range r {
		rule.addScores(ss, c, used, j, k, lambda)
	}
	bi, ri := -1, -1
	for i := range c {
		if used[i] {
			continue
		}
		if bi < 0 || c[i] > c[bi] {
			bi, ri = i, bi
		} else if ri < 0 || c[i] > c[ri] {
			ri = i
		}
	}
	if ec != nil {
		if ri >= 0 {
			explainRound(ec, ss, round+1, []int{bi}, c[bi], []int{ri}, c[ri])
		} else {
			explainRound(ec, ss, round+1, []int{bi}, c[bi], nil, 0)
		}
	}
	return append(r, bi)
}

// abpPollStride is the number of heap pops between cancellation polls in
// the ABP selection loop: each pop is O(log K²), so cancellation latency
// stays far below one materialisation row while the poll cost vanishes.
const abpPollStride = 256

// ABP implements the Any-Best-Pair greedy algorithm (Section 5, adapted
// from Cai et al.): all O(K²) pairs are ranked by HPF(p_i, p_j) (Eq. 15)
// and the best pair whose endpoints are both unused is repeatedly added,
// invalidating used endpoints lazily. ⌊k/2⌋ pairs are selected; for odd k
// the last place is the unused one with the largest contribution to the
// current R (the paper allows an arbitrary choice here). A
// 2-approximation under the Theorem 8.2 condition.
//
// Best-pair maintenance is incremental: the materialised pairs are
// heapified and popped only until ⌊k/2⌋ disjoint pairs emerge — a pair
// invalidated by an earlier selection is discarded lazily when it
// surfaces, never re-examined. This replaces the full O(K² log K²) sort
// of the rescan baseline (the oracle of abp_equiv_test); selections,
// gains and explain traces are identical because both rank by abpBefore
// over the same abpScores materialisation.
//
// Only the first abpPrefix(K, k) pairs of that ranking are kept: every
// pair the loop pops — explain's runner-up peeks included — is selected
// (at most k/2), is the last runner-up, or touches one of the ≤ k places
// selected by the end (at most k·(K−1) pairs), so no pop reaches past
// rank k·K + k/2. The argument does not depend on the pair score, so
// ABP_D (AlgABPDiv) runs on the same prefix.
func ABP(ss *ScoreSet, p Params) (Selection, error) {
	return Select(AlgABP, ss, p)
}

// abp runs ABP with the pairs ranked by rule's pair scores.
func (rule pairRule) abp(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	k := p.K
	ec := explain.FromContext(ctx)
	if k == 1 {
		return abpFirstPick(ec, ss, p.Lambda), nil
	}

	h, err := abpScores(ctx, ss, rule, k, p.Lambda, abpPrefix(n, k))
	if err != nil {
		return Selection{}, err
	}
	abpHeapify(h)
	if err := checkpoint(ctx, "select:abp"); err != nil {
		return Selection{}, err
	}

	r := make([]int, 0, k)
	used := make([]bool, n)
	round := 0
	for pops := 0; len(r)+2 <= k && len(h) > 0; {
		if pops++; pops%abpPollStride == 0 {
			if err := checkpoint(ctx, "select:abp"); err != nil {
				return Selection{}, err
			}
		}
		var pr abpPair
		h, pr = abpPop(h)
		// Lazy deletion: a pair touching an already selected place is
		// invalid forever (used only grows), so it is dropped the moment
		// it surfaces instead of being hunted down at selection time.
		if used[pr.i] || used[pr.j] {
			continue
		}
		round++
		if ec != nil {
			// Runner-up: the next pair in the total order whose endpoints
			// are both unused before this selection. Invalid pairs popped
			// on the way are permanently dead and stay discarded; the
			// runner-up itself may be selected later, so it is pushed back.
			found := false
			var ru abpPair
			for len(h) > 0 {
				h, ru = abpPop(h)
				if !used[ru.i] && !used[ru.j] {
					found = true
					h = abpPush(h, ru)
					break
				}
			}
			if found {
				explainRound(ec, ss, round, []int{int(pr.i), int(pr.j)}, pr.score,
					[]int{int(ru.i), int(ru.j)}, ru.score)
			} else {
				explainRound(ec, ss, round, []int{int(pr.i), int(pr.j)}, pr.score, nil, 0)
			}
		}
		used[pr.i], used[pr.j] = true, true
		r = append(r, int(pr.i), int(pr.j))
	}
	if len(r) < k {
		r = abpOddTail(ec, ss, rule, k, p.Lambda, round, r, used)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// abpPrefix is the number of top-ranked pairs ABP keeps for K places and
// result size k (see ABP for why no pop reaches past it).
func abpPrefix(K, k int) int { return k*K + k }
