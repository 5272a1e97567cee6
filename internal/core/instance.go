package core

import (
	"math/bits"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/pairs"
)

// instance is the per-request pair state Step 2 reads sF from. A score
// set holds no pair score, only what recomputes one (see Pair); an
// instance adds what scoring a whole row at once needs: the contextIndex
// of the places' context sets and the spatial method's row source — the
// places' distances to q, their grid cell or sector indices, or the
// custom matrix. Both are built on the first Row call, so a selection
// that reads few pairs never pays for them. An instance belongs to one
// selection (Row writes its scratch); the score set it reads stays shared
// and read-only.
type instance struct {
	ss *ScoreSet
	x  *contextIndex
	// spRow writes sS(p_min(i,j), p_max(i,j)) into dst[j] for every j ≠ i
	// below len(dst).
	spRow  func(i int, dst []float64)
	counts []int32 // per place: the tail items it shares with the row's place
}

func newInstance(ss *ScoreSet) *instance { return &instance{ss: ss} }

// prepare builds the context index and the spatial row source.
func (in *instance) prepare() {
	ss := in.ss
	n := ss.K()
	in.x = newContextIndex(ss.Places)
	in.counts = make([]int32, n)
	switch ss.opt.Spatial {
	case SpatialSquaredGrid:
		in.spRow = ss.sq.Row
	case SpatialRadialGrid:
		in.spRow = ss.rad.Row
	case SpatialCustom:
		m := ss.custom
		in.spRow = func(i int, dst []float64) {
			for j := range dst[:min(i, len(dst))] {
				dst[j] = m.At(j, i)
			}
			if i < len(dst) {
				copy(dst[i+1:], m.Row(i))
			}
		}
	default:
		pts := make([]geo.Point, n)
		for i := range ss.Places {
			pts[i] = ss.Places[i].Loc
		}
		in.spRow = grid.NewExactPairs(ss.Q, pts).Row
	}
}

// Row writes sF(p_i, p_j) into dst[j] for every j ≠ i below len(dst) ≤ K,
// bit for bit as Pair returns it; dst[i] is left unspecified. Each
// pair is taken in Pair's (min, max) orientation: sC is jaccard's
// expression on the intersection counted from the context index (+0 for
// disjoint sets, see contextIndex.jaccard), sS comes from the spatial
// method's row source, and pairs.Blend combines them.
func (in *instance) Row(i int, dst []float64) {
	if in.x == nil {
		in.prepare()
	}
	x, counts := in.x, in.counts
	for _, v := range x.tail[x.tailOff[i]:x.tailOff[i+1]] {
		for _, p := range x.post[x.postOff[v]:x.postOff[v+1]] {
			counts[p]++
		}
	}
	in.spRow(i, dst) // sS, which the loop below blends with sC in place
	wc, ws := 1-in.ss.Gamma, in.ss.Gamma
	hi, li := x.head[i], x.lens[i]
	heads, lens, cnt := x.head[:len(dst)], x.lens[:len(dst)], counts[:len(dst)]
	for j := range dst {
		inter := int32(bits.OnesCount64(hi&heads[j])) + cnt[j]
		cnt[j] = 0
		dst[j] = pairs.Blend(wc, x.jaccard(inter, li, lens[j]), ws, dst[j])
	}
	clear(counts[len(dst):])
}
