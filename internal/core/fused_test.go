package core

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/pairs"
	"repro/internal/textctx"
)

// Shared grid tables for FuzzFusedStep1: one squared table narrower than
// every grid the fuzzer builds beyond n = 4 (the cellScores fallback),
// one covering every grid up to n = 400, and one radial table.
var (
	fuzzTablesOnce         sync.Once
	fuzzSmallSq, fuzzBigSq *grid.SquaredTable
	fuzzRadialTbl          *grid.RadialTable
	fuzzSpatials           = [...]SpatialMethod{SpatialExact, SpatialSquaredGrid, SpatialRadialGrid, SpatialCustom}
	fuzzGammas             = [...]float64{0, 0.5, 1, 0.3}
)

// originHook is a SpatialCustom hook that returns the exact Ptolemy
// matrix with respect to the origin rather than q, so that a pair the
// exact method recomputes instead of reading it from the matrix differs.
func originHook(_ geo.Point, places []Place) (*pairs.Matrix, error) {
	pts := make([]geo.Point, len(places))
	for i := range places {
		pts[i] = places[i].Loc
	}
	return grid.AllPairsSpatial(geo.Pt(0, 0), pts), nil
}

// fuzzInstance draws n places around q = (50, 50) from seed. Context sets
// have 0–11 items from a skewed distribution over vocab items, so the
// most frequent ones fill the 64-item head and, with vocab > 64, the rest
// form a non-empty tail. flags adds the cases the pass branches on: bit 0
// repeats the previous place's set, bit 1 puts places on q, bit 2 puts
// places on top of the previous one.
func fuzzInstance(seed int64, n, vocab int, flags uint8) (geo.Point, []Place) {
	rng := rand.New(rand.NewSource(seed))
	q := geo.Pt(50, 50)
	places := make([]Place, n)
	for i := range places {
		ids := make([]textctx.ItemID, rng.Intn(12))
		for j := range ids {
			ids[j] = textctx.ItemID(int(rng.ExpFloat64()*float64(vocab)/6) % vocab)
		}
		p := Place{
			ID:      word(i),
			Loc:     geo.Pt(rng.Float64()*100, rng.Float64()*100),
			Rel:     rng.Float64(),
			Context: textctx.NewSet(ids...),
		}
		if flags&1 != 0 && i%5 == 1 {
			p.Context = places[i-1].Context
		}
		if flags&2 != 0 && i%4 == 0 {
			p.Loc = q
		}
		if flags&4 != 0 && i%3 == 1 {
			p.Loc = places[i-1].Loc
		}
		places[i] = p
	}
	return q, places
}

// FuzzFusedStep1 checks the fused Step-1 pass against the matrix oracle
// (msJh, the spatial fill or the custom hook's matrix, Matrix.RowSums and
// pairs.Blend; see matrixStep1) bit for bit, for every spatial method:
// pCS, pSS, pFS, every sF entry as the instance's kernel rows give it,
// every pair's sC, sS and sF as Pair recomputes them, and the explain
// pruning and grid statistics.
func FuzzFusedStep1(f *testing.F) {
	// seed, n, vocab, spatial, table, γ, flags
	f.Add(int64(1), uint16(2), uint16(3), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(int64(2), uint16(40), uint16(30), uint8(1), uint8(2), uint8(1), uint8(7))
	f.Add(int64(3), uint16(120), uint16(500), uint8(0), uint8(0), uint8(3), uint8(3))
	f.Add(int64(4), uint16(300), uint16(2000), uint8(1), uint8(2), uint8(1), uint8(5))
	f.Add(int64(5), uint16(200), uint16(400), uint8(1), uint8(1), uint8(0), uint8(6))
	f.Add(int64(6), uint16(150), uint16(300), uint8(2), uint8(1), uint8(2), uint8(7))
	f.Add(int64(7), uint16(90), uint16(100), uint8(2), uint8(0), uint8(1), uint8(1))
	f.Add(int64(8), uint16(64), uint16(64), uint8(1), uint8(0), uint8(1), uint8(2))
	f.Add(int64(9), uint16(3), uint16(1), uint8(0), uint8(0), uint8(2), uint8(7))
	f.Add(int64(10), uint16(80), uint16(200), uint8(3), uint8(0), uint8(3), uint8(7))
	f.Add(int64(11), uint16(2), uint16(2), uint8(3), uint8(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n16, vocab16 uint16, spatial, table, gammaSel, flags uint8) {
		fuzzTablesOnce.Do(func() {
			fuzzSmallSq, fuzzBigSq, fuzzRadialTbl = grid.NewSquaredTable(2), grid.NewSquaredTable(20), grid.NewRadialTable()
		})
		n, vocab := 2+int(n16)%299, 1+int(vocab16)%3000
		q, places := fuzzInstance(seed, n, vocab, flags)
		opt := ScoreOptions{Spatial: fuzzSpatials[int(spatial)%4], Gamma: fuzzGammas[int(gammaSel)%4]}
		switch {
		case opt.Spatial == SpatialCustom:
			opt.CustomSpatial = originHook
		case opt.Spatial == SpatialSquaredGrid && table%3 == 1:
			opt.SquaredTable = fuzzSmallSq
		case opt.Spatial == SpatialSquaredGrid && table%3 == 2:
			opt.SquaredTable = fuzzBigSq
		case opt.Spatial == SpatialRadialGrid && table%2 == 1:
			opt.RadialTable = fuzzRadialTbl
		}
		fcol, wcol := explain.New(), explain.New()
		fused, err := ComputeScoresCtx(explain.WithCollector(context.Background(), fcol), q, places, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := matrixStep1(explain.WithCollector(context.Background(), wcol), q, places, opt)
		if err != nil {
			t.Fatal(err)
		}
		frep, wrep := fcol.Report(), wcol.Report()
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		in, row := newInstance(fused), make([]float64, n)
		for i := 0; i < n; i++ {
			if !same(fused.PCS[i], want.PCS[i]) || !same(fused.PSS[i], want.PSS[i]) || !same(fused.PFS[i], want.PFS[i]) {
				t.Fatalf("place %d: fused (%v, %v, %v), matrix (%v, %v, %v)", i,
					fused.PCS[i], fused.PSS[i], fused.PFS[i], want.PCS[i], want.PSS[i], want.PFS[i])
			}
			in.Row(i, row)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				wsc, wsp, wsf := want.SC.At(i, j), want.SS.At(i, j), want.SF.At(i, j)
				if !same(row[j], wsf) {
					t.Fatalf("pair (%d, %d): kernel row sF %v, matrix %v", i, j, row[j], wsf)
				}
				if sc, sp, sf := fused.Pair(i, j); !same(sc, wsc) || !same(sp, wsp) || !same(sf, wsf) {
					t.Fatalf("pair (%d, %d): sC %v sS %v sF %v, matrix %v %v %v", i, j,
						sc, sp, sf, wsc, wsp, wsf)
				}
			}
		}
		if !reflect.DeepEqual(frep.Pruning, wrep.Pruning) {
			t.Fatalf("pruning: fused %+v, msJh %+v", *frep.Pruning, *wrep.Pruning)
		}
		if !reflect.DeepEqual(frep.Grid, wrep.Grid) {
			t.Fatalf("grid: fused %+v, matrix %+v", *frep.Grid, *wrep.Grid)
		}
	})
}

// TestFusedHeadTailSplit pins the instance the fused pass counts over: on
// more than 64 distinct shared items the head holds exactly 64 and the
// tail the rest, and every pair's count from the split equals the set
// intersection.
func TestFusedHeadTailSplit(t *testing.T) {
	_, places := fuzzInstance(11, 200, 600, 1)
	x := newContextIndex(places)
	var headBits uint64
	for _, h := range x.head {
		headBits |= h
	}
	if c := bits.OnesCount64(headBits); c != headItems {
		t.Fatalf("head holds %d items, want %d", c, headItems)
	}
	if len(x.post) == 0 {
		t.Fatal("empty tail on an instance with hundreds of shared items")
	}
	for i := range places {
		for j := i + 1; j < len(places); j++ {
			got := bits.OnesCount64(x.head[i] & x.head[j])
			for _, v := range x.tail[x.tailOff[i]:x.tailOff[i+1]] {
				for _, p := range x.post[x.postOff[v]:x.postOff[v+1]] {
					if int(p) == j {
						got++
					}
				}
			}
			if want := places[i].Context.IntersectionSize(places[j].Context); got != want {
				t.Fatalf("(%d, %d): split counts %d shared items, sets share %d", i, j, got, want)
			}
		}
	}
}
