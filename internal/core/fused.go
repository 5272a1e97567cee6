package core

import (
	"context"
	"math/bits"

	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/pairs"
	"repro/internal/telemetry"
	"repro/internal/textctx"
)

// fusedCtxStride is the number of rows the fused pass completes between
// context polls, as pairs.Fill does.
const fusedCtxStride = 32

// headItems is the number of most frequent items of an instance whose
// membership is held as a bit mask per place.
const headItems = 64

// contextIndex is the per-request instance the fused Step-1 pass counts
// set intersections over. The items of the instance split into a head —
// the ≤ 64 most frequent, ties broken by local ID (order of first
// occurrence) — held as one bit mask per place, and a tail held as
// postings: per tail item, the places that hold it, ascending. Any split
// counts exactly: |C(p_i) ∩ C(p_j)| = popcount(head_i & head_j) plus the
// tail items the two share. Items of a single place are left out of the
// tail, as they intersect nothing.
type contextIndex struct {
	lens []int32  // |C(p_i)|
	head []uint64 // per place, bit b set when it holds head item b
	// Place i's tail items are tail[tailOff[i]:tailOff[i+1]]; the
	// postings of tail item v are post[postOff[v]:postOff[v+1]].
	tailOff, tail []int32
	postOff, post []int32
	// scanned and cut are what msJh's reverse scan visits and skips over
	// the postings of every item (see MSJHEngine): the place at rank r of
	// an item's L postings scans the L−1−r after it and cuts the r+1 up to
	// itself.
	scanned, cut int64
}

// newContextIndex builds the instance over the places' context sets.
func newContextIndex(places []Place) *contextIndex {
	n := len(places)
	x := &contextIndex{lens: make([]int32, n), head: make([]uint64, n), tailOff: make([]int32, n+1)}
	total := 0
	for i := range places {
		x.lens[i] = int32(places[i].Context.Len())
		total += int(x.lens[i])
	}
	// Local IDs in order of first occurrence; occ holds the local ID of
	// every (place, item) occurrence, place by place.
	local := make(map[textctx.ItemID]int32, total)
	occ := make([]int32, 0, total)
	var freq []int32
	for i := range places {
		for _, v := range places[i].Context.Items() {
			id, ok := local[v]
			if !ok {
				id = int32(len(freq))
				local[v] = id
				freq = append(freq, 0)
			}
			freq[id]++
			occ = append(occ, id)
		}
	}

	// The head threshold: the items above thr number fewer than
	// headItems, and those at thr fill the rest of the head by local ID.
	// thr reaches 0 only when every item fits.
	perFreq := make([]int32, n+1)
	for _, f := range freq {
		perFreq[f]++
		x.scanned += int64(f) * int64(f-1) / 2
		x.cut += int64(f) * int64(f+1) / 2
	}
	thr, above := n, 0
	for thr > 0 && above+int(perFreq[thr]) < headItems {
		above += int(perFreq[thr])
		thr--
	}
	// code[id] is the head bit of a head item, headItems + its tail index
	// for a tail item, and −1 for an item of one place.
	code := make([]int32, len(freq))
	atThr, tails := headItems-above, int32(0)
	var bit int32
	for id, f := range freq {
		switch {
		case int(f) > thr || int(f) == thr && atThr > 0:
			if int(f) == thr {
				atThr--
			}
			code[id] = bit
			bit++
		case f > 1:
			code[id] = headItems + tails
			tails++
		default:
			code[id] = -1
		}
	}
	x.postOff = make([]int32, tails+1)
	for id, c := range code {
		if c >= headItems {
			x.postOff[c-headItems+1] = freq[id]
		}
	}
	for v := range tails {
		x.postOff[v+1] += x.postOff[v]
	}
	x.post = make([]int32, x.postOff[tails])
	next := append([]int32(nil), x.postOff[:tails]...)
	k := 0
	for i := range places {
		for _, id := range occ[k : k+int(x.lens[i])] {
			switch c := code[id]; {
			case c >= headItems:
				v := c - headItems
				x.tail = append(x.tail, v)
				x.post[next[v]] = int32(i)
				next[v]++
			case c >= 0:
				x.head[i] |= 1 << c
			}
		}
		k += int(x.lens[i])
		x.tailOff[i+1] = int32(len(x.tail))
	}
	return x
}

// fusedStep1 is Step 1: one sequential pass over the rows of the pair
// triangle yields pCS, the exact and custom methods' pSS and the sF
// triangle, with no sC or sS triangle. Row i counts its
// tail intersections with msJh's reverse scan of each tail item's
// postings (stopping at the first place ≤ i), gathers sS into the sF row,
// and then per j > i, in ascending order, derives sC with jaccard's
// expression (+0 for disjoint sets), adds it to pCS(p_i) and pCS(p_j) —
// the order Matrix.RowSums adds in, so the sums keep their bits — and
// overwrites the row entry with pairs.Blend(1−γ, sC, γ, sS). The grids'
// pSS comes from their cells.
//
// The stage spans stay: StagePSS covers the spatial setup and the cell
// pSS, StagePCS the pass.
func (ss *ScoreSet) fusedStep1(ctx context.Context, pts []geo.Point) error {
	endPSS := telemetry.StartSpan(ctx, telemetry.StagePSS)
	rows, pss, err := ss.spatialSetup(ctx, pts)
	endPSS()
	if err != nil {
		return err
	}
	if err := checkpoint(ctx, "scores:spatial"); err != nil {
		return err
	}

	endPCS := telemetry.StartSpan(ctx, telemetry.StagePCS)
	x := newContextIndex(ss.Places)
	exactPSS := pss == nil
	if exactPSS {
		pss = make([]float64, len(pts))
	}
	sf, pcs, compared, err := x.pass(ctx, rows, 1-ss.Gamma, ss.Gamma, exactPSS, pss)
	endPCS()
	if err != nil {
		return err
	}
	if ec := explain.FromContext(ctx); ec != nil {
		n := int64(len(pts))
		cand := n * (n - 1) / 2
		ec.SetPruning(explain.Pruning{
			Engine: "msJh", Sets: len(pts),
			CandidatePairs: cand, ComparedPairs: compared,
			PrunedPairs:     cand - compared,
			PostingsScanned: x.scanned, PostingsCut: x.cut,
		})
	}
	if err := checkpoint(ctx, "scores:contextual"); err != nil {
		return err
	}
	ss.PCS, ss.PSS, ss.SF = pcs, pss, sf
	return nil
}

// pass runs the fused row pass (see fusedStep1): rows writes sS of row i,
// wc and ws are 1−γ and γ, and with sumSS the sS of every pair is summed
// into pss in Matrix.RowSums' order. It returns the sF triangle, pCS and
// the number of pairs that share an item.
func (x *contextIndex) pass(ctx context.Context, rows func(i int, row []float64), wc, ws float64, sumSS bool, pss []float64) (*pairs.Matrix, []float64, int64, error) {
	n := len(x.lens)
	sf := pairs.New(n)
	pcs := make([]float64, n)
	counts := make([]int32, n)
	var compared int64
	for i := 0; i < n; i++ {
		if i%fusedCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, 0, err
			}
		}
		for _, v := range x.tail[x.tailOff[i]:x.tailOff[i+1]] {
			list := x.post[x.postOff[v]:x.postOff[v+1]]
			for t := len(list) - 1; t >= 0 && int(list[t]) > i; t-- {
				counts[list[t]]++
			}
		}
		row := sf.Row(i)
		rows(i, row)
		hi, li := x.head[i], x.lens[i]
		heads, lens, cnt := x.head[i+1:], x.lens[i+1:], counts[i+1:]
		pcsJ, pssJ := pcs[i+1:], pss[i+1:]
		accC, accS := pcs[i], pss[i]
		for t, sp := range row {
			inter := int32(bits.OnesCount64(hi&heads[t])) + cnt[t]
			cnt[t] = 0
			var sc float64
			if inter != 0 {
				// jaccard's expression; a disjoint pair adds nothing, which
				// is exact because no sum ever holds −0.
				sc = float64(inter) / float64(li+lens[t]-inter)
				accC += sc
				pcsJ[t] += sc
				compared++
			}
			if sumSS {
				accS += sp
				pssJ[t] += sp
			}
			row[t] = pairs.Blend(wc, sc, ws, sp)
		}
		pcs[i] = accC
		if sumSS {
			pss[i] = accS
		}
	}
	return sf, pcs, compared, nil
}
