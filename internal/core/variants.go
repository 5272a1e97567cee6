package core

import (
	"container/heap"
	"context"
)

// contribHeap is an indexed max-heap over candidate contributions,
// supporting in-place updates — the structure behind the paper's
// O(K·k·log K + K²) complexity statement for IAdU.
type contribHeap struct {
	score []float64 // contribution per place index
	items []int32   // heap of place indices
	pos   []int32   // place index → heap position (−1 when removed)
}

func newContribHeap(score []float64) *contribHeap {
	h := &contribHeap{
		score: score,
		items: make([]int32, len(score)),
		pos:   make([]int32, len(score)),
	}
	for i := range h.items {
		h.items[i] = int32(i)
		h.pos[i] = int32(i)
	}
	heap.Init(h)
	return h
}

func (h *contribHeap) Len() int { return len(h.items) }
func (h *contribHeap) Less(i, j int) bool {
	return h.score[h.items[i]] > h.score[h.items[j]]
}
func (h *contribHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}
func (h *contribHeap) Push(x interface{}) {
	idx := x.(int32)
	h.pos[idx] = int32(len(h.items))
	h.items = append(h.items, idx)
}
func (h *contribHeap) Pop() interface{} {
	n := len(h.items)
	idx := h.items[n-1]
	h.items = h.items[:n-1]
	h.pos[idx] = -1
	return idx
}

// update adjusts the contribution of place idx and restores heap order.
func (h *contribHeap) update(idx int, delta float64) {
	h.score[idx] += delta
	if p := h.pos[idx]; p >= 0 {
		heap.Fix(h, int(p))
	}
}

// popMax removes and returns the place with the largest contribution.
func (h *contribHeap) popMax() int { return int(heap.Pop(h).(int32)) }

// IAdUHeap is IAdU with an indexed max-heap over contributions instead of
// a linear scan per iteration: selection costs O(log K) and each of the
// O(K) per-iteration contribution updates costs O(log K) — the complexity
// the paper states. It computes the same objective; ties may break
// differently, so results are compared by HPF, not by identity. Kept as
// the DESIGN.md "IAdU array-update vs heap" ablation.
func IAdUHeap(ss *ScoreSet, p Params) (Selection, error) {
	return Select(AlgIAdUHeap, ss, p)
}

func iaduHeapCtx(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	k := p.K
	r := make([]int, 0, k)

	// First pick: maximum relevance.
	best := 0
	for i := 1; i < n; i++ {
		if ss.Places[i].Rel > ss.Places[best].Rel {
			best = i
		}
	}
	r = append(r, best)
	if k == 1 {
		return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
	}

	contrib := make([]float64, n)
	for i := 0; i < n; i++ {
		if i != best {
			contrib[i] = ss.PairHPF(i, best, k, p.Lambda)
		}
	}
	h := newContribHeap(contrib)
	// Remove the already selected place from the heap.
	if pos := h.pos[best]; pos >= 0 {
		heap.Remove(h, int(pos))
	}

	for len(r) < k {
		if err := checkpoint(ctx, "select:iadu-heap"); err != nil {
			return Selection{}, err
		}
		bi := h.popMax()
		r = append(r, bi)
		if len(r) == k {
			break
		}
		for i := 0; i < n; i++ {
			if h.pos[i] >= 0 {
				h.update(i, ss.PairHPF(i, bi, k, p.Lambda))
			}
		}
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}

// ABPEager is ABP with eager pair invalidation: after each selection the
// sorted pair list is compacted to drop every pair touching a used place,
// instead of skipping them lazily during the scan. Same selections; kept
// as the DESIGN.md "ABP lazy vs eager" ablation.
func ABPEager(ss *ScoreSet, p Params) (Selection, error) {
	return Select(AlgABPEager, ss, p)
}

func abpEagerCtx(ctx context.Context, ss *ScoreSet, p Params) (Selection, error) {
	n := ss.K()
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	k := p.K
	if k == 1 {
		return abpCtx(ctx, ss, p)
	}
	ps, err := abpScores(ctx, ss, k, p.Lambda, "select:abp-eager", 0)
	if err != nil {
		return Selection{}, err
	}
	// Sort by the shared ABP total order so equal-score ties select the
	// same pairs as the lazy variants.
	sortPairs(ps)

	r := make([]int, 0, k)
	used := make([]bool, n)
	for len(r)+2 <= k && len(ps) > 0 {
		// Each eager compaction pass is O(K²); poll before it.
		if err := checkpoint(ctx, "select:abp-eager"); err != nil {
			return Selection{}, err
		}
		pr := ps[0]
		used[pr.i], used[pr.j] = true, true
		r = append(r, int(pr.i), int(pr.j))
		// Eager compaction: drop every invalidated pair now.
		kept := ps[:0]
		for _, q := range ps[1:] {
			if !used[q.i] && !used[q.j] {
				kept = append(kept, q)
			}
		}
		ps = kept
	}
	if len(r) < k {
		bi := -1
		var bc float64
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			var c float64
			for _, j := range r {
				c += ss.PairHPF(i, j, k, p.Lambda)
			}
			if bi < 0 || c > bc {
				bi, bc = i, c
			}
		}
		r = append(r, bi)
	}
	return Selection{Indices: r, HPF: ss.Evaluate(r, p.Lambda).Total}, nil
}
