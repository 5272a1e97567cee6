package core

import (
	"context"
	"sort"

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

// IAdU implements the Incremental Add and Update greedy algorithm
// (Section 5, adapted from Cai et al.): it iteratively adds to R the place
// with the largest contribution cHPF (Eq. 17) — the relevance score for
// the first pick, then Σ_{p_j∈R} HPF(p_i, p_j) — updating the remaining
// contributions incrementally after every insertion. Complexity
// O(K·k + K log K); a 4-approximation when HPF satisfies the triangle
// inequality (Theorem 8.2).
func IAdU(ss *ScoreSet, p Params) (Selection, error) {
	return iaduCtx(context.Background(), ss, p)
}

func iaduCtx(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
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
	// maintained incrementally: adding p_new adds HPF(p_i, p_new) to
	// every candidate's contribution.
	contrib := make([]float64, n)
	for i := 0; i < n; i++ {
		if !used[i] {
			contrib[i] = ss.PairHPF(i, best, k, p.Lambda)
		}
	}
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
		for i := 0; i < n; i++ {
			if !used[i] {
				contrib[i] += ss.PairHPF(i, bi, k, p.Lambda)
			}
		}
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// abpPair is one materialised candidate pair: endpoint indices into the
// score set plus HPF(p_i, p_j).
type abpPair struct {
	i, j  int32
	score float64
}

// abpBefore is the total order every ABP variant ranks pairs by: score
// descending, ties broken by (i, j) ascending. A total order (rather than
// the raw score comparison alone) makes equal-score selections identical
// across the heap-based, sort-based and eager implementations — the
// invariant the abp ≡ abp-rescan property tests pin down.
func abpBefore(a, b abpPair) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// abpScores materialises the O(K²) pair scores. Both the heap-based ABP
// and the sort-based rescan build their ranking from this one function,
// so their inputs are bit-identical by construction. stage labels the
// cancellation checkpoints (polled once per row).
//
// The loop is PairHPF inlined with the per-call constants hoisted and the
// sF matrix walked row-wise: every arithmetic operation appears in the
// same order as in PairHPF, so each score is bit-identical to
// ss.PairHPF(i, j, k, lambda) — only the per-pair struct loads, matrix
// index arithmetic and recomputed constants are gone. This matters
// because materialisation is the cost shared by every ABP variant: it
// bounds the speedup the incremental heap can show over the rescan.
func abpScores(ctx context.Context, ss *ScoreSet, k int, lambda float64, stage string) ([]abpPair, error) {
	n := ss.K()
	kf := float64(k - 1)
	c1 := (1 - lambda) * float64(n-k) // (1−λ)(K−k), the relevance weight
	rels := make([]float64, n)
	for i := range rels {
		rels[i] = ss.Places[i].Rel
	}
	pfs := ss.PFS
	ps := make([]abpPair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		if err := checkpoint(ctx, stage); err != nil {
			return nil, err
		}
		ri, pi := rels[i], pfs[i]
		for t, s := range ss.SF.Row(i) {
			j := i + 1 + t
			score := c1*(ri+rels[j])/kf + lambda*((pi+pfs[j])/kf-2*s)
			ps = append(ps, abpPair{int32(i), int32(j), score})
		}
	}
	return ps, nil
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

// abpFirstPick handles the degenerate k=1 instance shared by the ABP
// variants: rank by relevance alone.
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
// trace. Shared by the heap and rescan variants so the odd-k tail
// (including its runner-up bookkeeping) cannot drift between them.
func abpOddTail(ec *explain.Collector, ss *ScoreSet, k int, lambda float64, round int, r []int, used []bool) []int {
	n := ss.K()
	bi, ri := -1, -1
	var bc, rc float64
	for i := 0; i < n; i++ {
		if used[i] {
			continue
		}
		var c float64
		for _, j := range r {
			c += ss.PairHPF(i, j, k, lambda)
		}
		if bi < 0 || c > bc {
			bi, bc, ri, rc = i, c, bi, bc
		} else if ri < 0 || c > rc {
			ri, rc = i, c
		}
	}
	if ec != nil {
		if ri >= 0 {
			explainRound(ec, ss, round+1, []int{bi}, bc, []int{ri}, rc)
		} else {
			explainRound(ec, ss, round+1, []int{bi}, bc, nil, 0)
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
// heapified in O(K²) and popped only until ⌊k/2⌋ disjoint pairs emerge —
// a pair invalidated by an earlier selection is discarded lazily when it
// surfaces, never re-examined. This replaces the full O(K² log K²) sort
// of the rescan baseline (kept as AlgABPRescan for the equivalence
// property tests and the bench tier); selections, gains and explain
// traces are identical because both variants rank by abpBefore over the
// same abpScores materialisation.
func ABP(ss *ScoreSet, p Params) (Selection, error) {
	return abpCtx(context.Background(), ss, p)
}

func abpCtx(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	k := p.K
	ec := explain.FromContext(ctx)
	if k == 1 {
		return abpFirstPick(ec, ss, p.Lambda), nil
	}

	h, err := abpScores(ctx, ss, k, p.Lambda, "select:abp")
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
		r = abpOddTail(ec, ss, k, p.Lambda, round, r, used)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// ABPRescan is the pre-incremental ABP: a full sort of the materialised
// pairs followed by a linear scan with lazy endpoint invalidation. It is
// kept as the reference implementation the incremental heap is proven
// against (selections, gains and explain traces must match bit-for-bit
// in abp_equiv_test).
func ABPRescan(ss *ScoreSet, p Params) (Selection, error) {
	return abpRescanCtx(context.Background(), ss, p)
}

func abpRescanCtx(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	k := p.K
	ec := explain.FromContext(ctx)
	if k == 1 {
		return abpFirstPick(ec, ss, p.Lambda), nil
	}

	ps, err := abpScores(ctx, ss, k, p.Lambda, "select:abp-rescan")
	if err != nil {
		return Selection{}, err
	}
	sort.Slice(ps, func(a, b int) bool { return abpBefore(ps[a], ps[b]) })
	if err := checkpoint(ctx, "select:abp-rescan"); err != nil {
		return Selection{}, err
	}

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
		r = abpOddTail(ec, ss, k, p.Lambda, round, r, used)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}
