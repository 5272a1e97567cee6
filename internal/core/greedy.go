package core

import (
	"cmp"
	"context"
	"math"
	"slices"
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
// k ≥ 2 and weight λ, to contrib[i] for every unused place i. It reads sF
// from one kernel row of the instance, written into row (length K), and
// evaluates PairHPF's or divPair's kernel on it with their constants, so
// every score has their bits. Each rule has its own loop, so the
// per-pair call stays direct.
func (rule pairRule) addScores(in *instance, row, contrib []float64, used []bool, j, k int, lambda float64) {
	ss := in.ss
	in.Row(j, row)
	kf, rj := float64(k-1), ss.Places[j].Rel
	if rule == ruleDiv {
		d1, d2 := 1-lambda, 2*lambda/kf
		for i := range contrib {
			if !used[i] {
				contrib[i] += divScore(d1, d2, kf, ss.Places[i].Rel, rj, row[i])
			}
		}
		return
	}
	c1, fj := (1-lambda)*float64(len(ss.Places)-k), ss.PFS[j]
	for i := range contrib {
		if !used[i] {
			contrib[i] += pairHPF(c1, kf, lambda, ss.Places[i].Rel, rj, ss.PFS[i], fj, row[i])
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
	// (p_i, p_new) to every candidate's contribution, one kernel row of
	// the instance per pick.
	in, row := newInstance(ss), make([]float64, n)
	contrib := make([]float64, n)
	rule.addScores(in, row, contrib, used, best, k, p.Lambda)
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
		rule.addScores(in, row, contrib, used, bi, k, p.Lambda)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// abpPair is one scored candidate pair: endpoint indices into the score
// set plus the pair rule's score of (p_i, p_j).
type abpPair struct {
	i, j  int32
	score float64
}

// abpBefore is the total order ABP ranks pairs by: score descending, ties
// broken by (i, j) ascending. A total order (rather than the raw score
// comparison alone) makes equal-score selections identical across the
// rank join and the sort-based rescan oracle — the invariant the
// abp ≡ rescan property tests pin down.
func abpBefore(a, b abpPair) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// abpSiftDown restores the max-heap property (w.r.t. abpBefore) below
// position i. Hand-rolled rather than container/heap: the interface-free
// inner loop is what keeps heap maintenance cheap.
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

// abpSelect reorders ps so that ps[m−1] is its m-th pair in abpBefore
// order, the pairs before it precede it and the pairs after it follow it
// (quickselect), for 1 ≤ m ≤ len(ps). The pairs of ps must be distinct.
// A range of at least abpSampleMin pairs cuts at a sampled pivot
// (abpSamplePivot), so a cut of the band's buffer, twice the m it keeps,
// costs about one pass over it and a pass over the half it keeps; a
// smaller one cuts at a median of three.
func abpSelect(ps []abpPair, m int) {
	lo, hi := 0, len(ps) // the m-th pair is in ps[lo:hi]
	for hi-lo > 1 {
		var b int
		if hi-lo >= abpSampleMin {
			b = lo + abpSamplePivot(ps[lo:hi], m-1-lo)
		} else {
			a, c := lo, hi-1
			b = lo + (hi-lo)/2
			if abpBefore(ps[b], ps[a]) {
				a, b = b, a
			}
			if abpBefore(ps[c], ps[b]) {
				b = c
				if abpBefore(ps[b], ps[a]) {
					b = a
				}
			}
		}
		ps[b], ps[hi-1] = ps[hi-1], ps[b]
		pivot, at := ps[hi-1], lo
		for t := lo; t < hi-1; t++ {
			if abpBefore(ps[t], pivot) {
				ps[at], ps[t] = ps[t], ps[at]
				at++
			}
		}
		ps[at], ps[hi-1] = ps[hi-1], ps[at] // ps[lo:at] precede the pivot, now at at
		switch {
		case m-1 < at:
			hi = at
		case m-1 > at:
			lo = at + 1
		default:
			return
		}
	}
}

// abpSampleMin is the smallest range abpSelect cuts at a sampled pivot.
const abpSampleMin = 1024

// abpSamplePivot returns the index in ps of a pivot for finding the pair
// of rank t (from 0). It gathers s ≈ n^⅔ pairs spread over ps at its
// front and selects among them the pair whose rank in the sample
// estimates t, moved by √s sample ranks (about two standard errors)
// towards the middle of ps. The cut then most likely leaves rank t on
// the side of the nearer end, whose size is t or n − t plus n/√s: when
// rank t is near an end, as in the second cut of a band's buffer, that
// side is small.
func abpSamplePivot(ps []abpPair, t int) int {
	n := len(ps)
	s := int(math.Cbrt(float64(n) * float64(n)))
	step := n / s
	for i := 1; i < s; i++ {
		ps[i], ps[i*step] = ps[i*step], ps[i]
	}
	r, g := t*s/n, int(math.Sqrt(float64(s)))
	if 2*t < n {
		r = min(r+g, s-1)
	} else {
		r = max(r-g, 0)
	}
	abpSelect(ps[:s], r+1)
	return r
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
func abpOddTail(ec *explain.Collector, in *instance, rule pairRule, k int, lambda float64, round int, r []int, used []bool) []int {
	ss := in.ss
	c, row := make([]float64, ss.K()), make([]float64, ss.K())
	for _, j := range r {
		rule.addScores(in, row, c, used, j, k, lambda)
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

// ABP implements the Any-Best-Pair greedy algorithm (Section 5, adapted
// from Cai et al.): pairs are ranked by HPF(p_i, p_j) (Eq. 15) and the
// best pair whose endpoints are both unused is repeatedly added,
// invalidating used endpoints lazily. ⌊k/2⌋ pairs are selected; for odd k
// the last place is the unused one with the largest contribution to the
// current R (the paper allows an arbitrary choice here). A
// 2-approximation under the Theorem 8.2 condition.
//
// The ranking is never materialised: abpJoin produces it lazily, in the
// total order abpBefore, scoring only the pairs whose upper bound
// reaches the score of a pair the loop takes. A pair invalidated by an
// earlier selection is dropped when it surfaces, never re-examined.
// Selections, gains and explain traces are those of sorting all O(K²)
// pairs and scanning them (the rescan oracle of abp_equiv_test), bit for
// bit. ABP_D (AlgABPDiv) runs on the same body under its own bound.
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

	used := make([]bool, n)
	in := newInstance(ss)
	jn := newABPJoin(ctx, in, rule, k, p.Lambda, used)
	if err := checkpoint(ctx, "select:abp"); err != nil {
		return Selection{}, err
	}
	r := make([]int, 0, k)
	round := 0
	for len(r)+2 <= k {
		pr, ok, err := jn.next()
		if err != nil {
			return Selection{}, err
		}
		if !ok {
			break
		}
		round++
		if ec != nil {
			// Runner-up: the next pair in the total order whose endpoints
			// are both unused before this selection. It may be selected
			// later, so it goes back to the join.
			ru, found, err := jn.next()
			if err != nil {
				return Selection{}, err
			}
			if found {
				jn.unread(ru)
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
		r = abpOddTail(ec, in, rule, k, p.Lambda, round, r, used)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// abpJoin yields the pairs of a score set whose endpoints are both
// unused, in abpBefore order, scoring only the pairs that order has to
// look at. It is a rank join (Ilyas et al., VLDB 2003; Fagin's threshold
// algorithm) over a separable upper bound of the pair score: sF ≥ 0, so
// rule's score of (p_i, p_j) is at most its key a_i + a_j, with
//
//	HPF: a_i = (c1·r_i + λ·pFS_i)/kf    c1 = (1−λ)(K−k), kf = k−1
//	div: a_i = d1·r_i/kf + d2/2         d1 = 1−λ, d2 = 2λ/kf
//
// up to rounding, which abpBound covers. The places are sorted by
// descending a, ties by descending index, into rows, and the frontier is
// one cursor per row r: the pairs (r, t) of row positions with
// r < t < cur[r] are enumerated, and the keys a_r + a_t fall as t grows,
// and from row to row. The join enumerates in bands: each moves every
// cursor past the keys that reach a threshold, and rest becomes the
// largest key not yet enumerated. An enumerated pair whose endpoints are
// both unused is scored exactly, with pairHPF or divScore on sF read
// through the instance — one Pair call at a time, or a kernel row when
// the band covers at least a 1/abpDenseRow share of the row; a used
// place's row is dropped. A kernel row is cut after the largest place
// index the band needs from it: where keys tie, the row's later
// positions hold lower indices, so on a flat bound (ABP_D at λ = 1) row r
// needs only the places below its own. Each band's pairs form one heap
// ordered by abpBefore, so storing them copies nothing; a band keeps at
// most abpKeep of them (see there). The best scored pair is yielded once
// its score is above abpBound(rest): no unscored pair can then beat it or
// tie it, so the (score desc, (i, j) asc) order holds exactly, ties
// included.
//
// A band reaches w below rest, but not below the best score so far: w
// starts at 2⁻¹⁰ of rest and doubles until a pair is yielded, so a band
// scores about as deep as the next yield needs.
type abpJoin struct {
	ctx                    context.Context
	in                     *instance
	rule                   pairRule
	c1, kf, lambda, d1, d2 float64
	keep                   int       // abpKeep(k, K): the most pairs a band keeps
	row                    []float64 // a kernel row of the instance, once a band needs one
	rest                   float64   // the largest key of a pair not yet enumerated; −Inf when none is left
	w                      float64   // the depth of the next band below rest
	rows                   []abpRow
	cur, end               []int32     // per row: the next column to enumerate, and a band's end
	heaps                  [][]abpPair // the scored pairs: one heap per band
	used                   []bool      // shared with the caller, which marks selections
	// exhaustive scores every pair in one band: a custom spatial method's
	// sS, and with it sF, may leave [0, 1], and with it the sF ≥ 0 the
	// bound rests on.
	exhaustive bool
}

// abpDenseRow sets when a band scores a row's pairs from a kernel row of
// the instance rather than one Pair call each: when they are at least a
// 1/abpDenseRow share of the K places. A kernel row costs about as much
// as K/abpDenseRow Pair calls.
const abpDenseRow = 16

// abpKeep is the most pairs one band of the join keeps for ABP with
// result size k over K places: its first k·K + k pairs in abpBefore
// order. The rest can never be yielded. next yields the first pair in
// abpBefore order whose endpoints are both unused, so when it yields a
// pair p, every pair before p either touches a used place or is the pair
// the caller has just taken and not yet marked (the explain runner-up
// peek, whose pair is returned with unread). The selection loop calls
// next only while at most k − 2 places are used, and at most (k−2)(K−1)
// pairs touch them, so fewer than (k−2)(K−1) + 2 ≤ k·K + k pairs precede
// any pair next yields, selection and runner-up alike. A pair a band drops
// has k·K + k pairs before it in its own band, all of them before it in
// abpBefore order, so it is never the first unused pair: by induction
// over the yields, the join with the cap yields what it yields without.
// The cap holds whatever the bound, so it covers the exhaustive join too.
func abpKeep(k, n int) int { return k*n + k }

// abpRow is one place in the join's order: its share a of the bound and
// its index in the score set.
type abpRow struct {
	a float64
	i int32
}

// newABPJoin prepares the rank join of ss's pairs under rule for result
// size k ≥ 2 and weight λ. used is read at every step: the caller marks
// the endpoints of each pair it takes.
func newABPJoin(ctx context.Context, in *instance, rule pairRule, k int, lambda float64, used []bool) *abpJoin {
	ss := in.ss
	n := ss.K()
	jn := &abpJoin{ctx: ctx, in: in, rule: rule, kf: float64(k - 1), lambda: lambda, keep: abpKeep(k, n), used: used}
	jn.c1 = (1 - lambda) * float64(n-k)     // pairHPF's relevance weight (1−λ)(K−k)
	jn.d1, jn.d2 = 1-lambda, 2*lambda/jn.kf // divScore's relevance and diversity weights
	jn.exhaustive = ss.customLoose
	jn.rows = make([]abpRow, n)
	for i := range jn.rows {
		ri, a := ss.Places[i].Rel, 0.0
		if rule == ruleDiv {
			a = float64(jn.d1*ri)/jn.kf + float64(jn.d2/2)
		} else {
			a = (float64(jn.c1*ri) + float64(lambda*ss.PFS[i])) / jn.kf
		}
		jn.rows[i] = abpRow{a, int32(i)}
	}
	slices.SortFunc(jn.rows, func(x, y abpRow) int {
		if x.a != y.a {
			if x.a > y.a {
				return -1
			}
			return 1
		}
		return cmp.Compare(y.i, x.i)
	})
	jn.cur, jn.end = make([]int32, n), make([]int32, n)
	for r := range jn.cur {
		jn.cur[r] = int32(r + 1)
	}
	jn.rest = jn.rows[0].a + jn.rows[1].a
	jn.w = math.Abs(jn.rest) * 0x1p-10
	return jn
}

// abpBound is the largest score a pair whose key is at most key can have.
// Every rounding step is monotone, and sF enters both pair scores with a
// negative sign, so a pair's computed score is at most its computed
// score at sF = 0: the sum of two non-negative terms of three roundings
// each, within a factor (1+u)⁴ of its exact value U (u = 2⁻⁵³). The key
// is within (1−u)⁴ of U, its a_i being non-negative sums of rounded
// products. So the score is at most key·(1+9u): the factor 1 + 2⁻⁴⁸ =
// 1 + 32u covers it with the rounding of the bound itself. Below the
// normal range each of the few operations loses at most 2⁻¹⁰⁷⁵
// absolutely, which the added 2⁻¹⁰⁶⁰ covers.
func abpBound(key float64) float64 {
	return float64(key*(1+0x1p-48)) + 0x1p-1060
}

// next returns the next pair in abpBefore order whose endpoints are both
// unused, or false when none is left. It fails only on cancellation.
func (jn *abpJoin) next() (abpPair, bool, error) {
	for {
		b := jn.best()
		done := math.IsInf(jn.rest, -1)
		if b >= 0 && (done || jn.heaps[b][0].score > abpBound(jn.rest)) {
			var p abpPair
			jn.heaps[b], p = abpPop(jn.heaps[b])
			jn.w = math.Abs(jn.rest) * 0x1p-10
			return p, true, nil
		}
		if done {
			return abpPair{}, false, nil
		}
		tau := jn.rest - jn.w
		if jn.exhaustive {
			tau = math.Inf(-1)
		} else if b >= 0 {
			tau = max(tau, min(jn.heaps[b][0].score, jn.rest))
		}
		if err := jn.band(tau); err != nil {
			return abpPair{}, false, err
		}
		jn.w *= 2
	}
}

// best drops the pairs that touch a used place from the top of every
// heap, and the heaps left empty, and returns the heap whose top pair
// comes first, or −1 when no pair is left.
func (jn *abpJoin) best() int {
	b := -1
	for h := 0; h < len(jn.heaps); {
		ps := jn.heaps[h]
		for len(ps) > 0 && (jn.used[ps[0].i] || jn.used[ps[0].j]) {
			ps, _ = abpPop(ps)
		}
		if len(ps) == 0 {
			last := len(jn.heaps) - 1
			jn.heaps[h], jn.heaps = jn.heaps[last], jn.heaps[:last]
			continue
		}
		if jn.heaps[h] = ps; b < 0 || abpBefore(ps[0], jn.heaps[b][0]) {
			b = h
		}
		h++
	}
	return b
}

// unread returns p, taken by next, to the join.
func (jn *abpJoin) unread(p abpPair) {
	if len(jn.heaps) == 0 {
		jn.heaps = append(jn.heaps, nil)
	}
	jn.heaps[0] = abpPush(jn.heaps[0], p)
}

// band enumerates every pair of a live row whose key reaches tau and
// lowers rest to the largest key left, which is below tau. Rows are
// visited in order until one's first key falls short of tau: the rows
// after it start lower still and have not started. Each row's end is
// found by binary search first, so the band's heap is allocated once.
// A band of more than jn.keep pairs gathers them into a buffer of twice
// that: each time it fills, abpSelect keeps its first jn.keep pairs, and
// the last of them becomes a cut that a later pair must precede to
// enter, as jn.keep pairs already do.
func (jn *abpJoin) band(tau float64) error {
	rows, n := jn.rows, int32(len(jn.rows))
	key := func(r, t int32) float64 { return rows[r].a + rows[t].a }
	var last, total int32 // rows [0, last) are visited
	for ; last < n-1; last++ {
		r := last
		if jn.cur[r] < n && jn.used[rows[r].i] {
			jn.cur[r] = n // a used place's row is dead
		}
		if jn.cur[r] == r+1 && key(r, r+1) < tau {
			break
		}
		c := jn.cur[r]
		jn.end[r] = c + int32(sort.Search(int(n-c), func(d int) bool { return key(r, c+int32(d)) < tau }))
		total += jn.end[r] - c
	}
	jn.rest = math.Inf(-1)
	if last < n-1 {
		jn.rest = key(last, last+1)
	}
	in, ss := jn.in, jn.in.ss
	keep := jn.keep
	ps := make([]abpPair, 0, min(int(total), 2*keep))
	var cut abpPair
	cutting := false // set when the buffer first fills
	for r := int32(0); r < last; r++ {
		if r%32 == 0 {
			if err := checkpoint(jn.ctx, "select:abp"); err != nil {
				return err
			}
		}
		c, e := jn.cur[r], jn.end[r]
		if c >= n {
			continue
		}
		if jn.cur[r] = e; e < n {
			jn.rest = max(jn.rest, key(r, e))
		}
		pi := rows[r].i
		dense := int(e-c)*abpDenseRow >= int(n)
		if dense {
			if jn.row == nil {
				jn.row = make([]float64, n)
			}
			hi := int32(0)
			for t := c; t < e; t++ {
				hi = max(hi, rows[t].i)
			}
			in.Row(int(pi), jn.row[:hi+1])
		}
		for t := c; t < e; t++ {
			pj := rows[t].i
			if jn.used[pj] {
				continue
			}
			i, j := min(pi, pj), max(pi, pj)
			var sf float64
			if dense {
				sf = jn.row[pj]
			} else {
				_, _, sf = ss.Pair(int(i), int(j))
			}
			ri, rj := ss.Places[i].Rel, ss.Places[j].Rel
			var score float64
			if jn.rule == ruleDiv {
				score = divScore(jn.d1, jn.d2, jn.kf, ri, rj, sf)
			} else {
				score = pairHPF(jn.c1, jn.kf, jn.lambda, ri, rj, ss.PFS[i], ss.PFS[j], sf)
			}
			p := abpPair{i, j, score}
			if cutting && !abpBefore(p, cut) {
				continue
			}
			if ps = append(ps, p); len(ps) == 2*keep {
				abpSelect(ps, keep)
				ps, cut, cutting = ps[:keep], ps[keep-1], true
			}
		}
	}
	if len(ps) > keep {
		abpSelect(ps, keep)
		ps = ps[:keep]
	}
	if len(ps) > 0 {
		abpHeapify(ps)
		jn.heaps = append(jn.heaps, ps)
	}
	return nil
}
