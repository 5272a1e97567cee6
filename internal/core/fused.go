package core

import (
	"context"
	"math/bits"

	"repro/internal/explain"
	"repro/internal/geo"
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
	// jac[inter·jw + union] is jaccard's expression inter/union for every
	// intersection and union two of the sets can have, and +0 for inter
	// = 0, when that table has at most jacTableMax entries; nil otherwise.
	jac []float64
	jw  int32
}

// jacTableMax bounds the Jaccard table of a contextIndex: 4 096 entries
// (32 KB) cover sets of up to 44 items.
const jacTableMax = 4096

// jaccard returns sC of two sets of sizes li and lj that share inter
// items: jaccard's expression, +0 for disjoint sets. The table holds the
// quotients of the same operands, so both paths give the same bits.
func (x *contextIndex) jaccard(inter, li, lj int32) float64 {
	if x.jac != nil {
		return x.jac[inter*x.jw+li+lj-inter]
	}
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(li+lj-inter)
}

// localIDs numbers the distinct items of an instance 0, 1, … in order of
// first occurrence. It is an open-addressing hash table with linear
// probing: the index build looks up every (place, item) occurrence, and
// an instance has far fewer distinct items than occurrences, so a small
// flat table beats a map there.
type localIDs struct {
	keys  []textctx.ItemID
	ids   []int32 // −1 marks an empty slot
	shift uint8   // 32 − log2(len(keys))
	n     int32
}

func newLocalIDs() *localIDs {
	t := &localIDs{}
	t.resize(64)
	return t
}

func (t *localIDs) resize(size int) {
	keys, ids := t.keys, t.ids
	t.keys, t.ids = make([]textctx.ItemID, size), make([]int32, size)
	for s := range t.ids {
		t.ids[s] = -1
	}
	t.shift = uint8(32 - bits.Len(uint(size-1)))
	for s, id := range ids {
		if id >= 0 {
			t.put(keys[s], id)
		}
	}
}

// put stores v with a new id in the first free slot of its probe.
func (t *localIDs) put(v textctx.ItemID, id int32) {
	mask := uint32(len(t.keys) - 1)
	for s := uint32(v) * 0x9E3779B1 >> t.shift; ; s = (s + 1) & mask {
		if t.ids[s] < 0 {
			t.keys[s], t.ids[s] = v, id
			return
		}
	}
}

// id returns v's number, numbering it next when it is new.
func (t *localIDs) id(v textctx.ItemID) int32 {
	mask := uint32(len(t.keys) - 1)
	for s := uint32(v) * 0x9E3779B1 >> t.shift; ; s = (s + 1) & mask {
		switch id := t.ids[s]; {
		case id < 0:
			id = t.n
			t.n++
			t.keys[s], t.ids[s] = v, id
			if 2*int(t.n) > len(t.keys) {
				t.resize(2 * len(t.keys))
			}
			return id
		case t.keys[s] == v:
			return id
		}
	}
}

// newContextIndex builds the instance over the places' context sets.
func newContextIndex(places []Place) *contextIndex {
	n := len(places)
	x := &contextIndex{lens: make([]int32, n), head: make([]uint64, n), tailOff: make([]int32, n+1)}
	total, longest := 0, int32(0)
	for i := range places {
		x.lens[i] = int32(places[i].Context.Len())
		total += int(x.lens[i])
		longest = max(longest, x.lens[i])
	}
	if w := 2*longest + 1; int(longest+1)*int(w) <= jacTableMax {
		x.jac, x.jw = make([]float64, (longest+1)*w), w
		for inter := int32(1); inter <= longest; inter++ {
			for union := inter; union < w; union++ {
				x.jac[inter*w+union] = float64(inter) / float64(union)
			}
		}
	}
	// Local IDs in order of first occurrence; occ holds the local ID of
	// every (place, item) occurrence, place by place.
	local := newLocalIDs()
	occ := make([]int32, 0, total)
	var freq []int32
	for i := range places {
		for _, v := range places[i].Context.Items() {
			id := local.id(v)
			if int(id) == len(freq) {
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
// triangle yields pCS and the exact and custom methods' pSS, and stores no
// pair score. Row i counts its tail intersections with msJh's reverse scan
// of each tail item's postings (stopping at the first place ≤ i), and then
// per j > i, in ascending order, derives sC with jaccard's expression (+0
// for disjoint sets) and adds it to pCS(p_i) and pCS(p_j) — the order
// Matrix.RowSums adds in, so the sums keep their bits. The exact and
// custom methods write sS of the row into one reused buffer and sum it
// into pSS in the same order; the grids' pSS comes from their cells, so
// they fill no sS row at all. Step 2 recomputes the pairs it reads (see
// instance).
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
	if rows != nil {
		pss = make([]float64, len(pts))
	}
	pcs, compared, err := x.pass(ctx, rows, pss)
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
	ss.PCS, ss.PSS = pcs, pss
	return nil
}

// pass runs the fused row pass (see fusedStep1). A non-nil rows writes sS
// of the pairs (i, j > i) of row i, which the pass sums into pss in
// Matrix.RowSums' order. It returns pCS and the number of pairs that share
// an item.
func (x *contextIndex) pass(ctx context.Context, rows func(i int, row []float64), pss []float64) ([]float64, int64, error) {
	n := len(x.lens)
	pcs := make([]float64, n)
	counts := make([]int32, n)
	var buf []float64
	if rows != nil {
		buf = make([]float64, n)
	}
	var compared int64
	for i := 0; i < n; i++ {
		if i%fusedCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		for _, v := range x.tail[x.tailOff[i]:x.tailOff[i+1]] {
			list := x.post[x.postOff[v]:x.postOff[v+1]]
			for t := len(list) - 1; t >= 0 && int(list[t]) > i; t-- {
				counts[list[t]]++
			}
		}
		hi, li := x.head[i], x.lens[i]
		heads, lens, cnt := x.head[i+1:], x.lens[i+1:], counts[i+1:]
		pcsJ := pcs[i+1:]
		acc := pcs[i]
		for t, h := range heads {
			inter := int32(bits.OnesCount64(hi&h)) + cnt[t]
			if inter != 0 {
				// A disjoint pair adds nothing, which is exact because no
				// sum ever holds −0.
				cnt[t] = 0
				sc := x.jaccard(inter, li, lens[t])
				acc += sc
				pcsJ[t] += sc
				compared++
			}
		}
		pcs[i] = acc
		if rows != nil {
			row := buf[:n-i-1]
			rows(i, row)
			pssJ := pss[i+1:]
			acc = pss[i]
			for t, sp := range row {
				acc += sp
				pssJ[t] += sp
			}
			pss[i] = acc
		}
	}
	return pcs, compared, nil
}
