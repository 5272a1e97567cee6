package textctx

import (
	"context"
	"math/rand"

	"repro/internal/explain"
	"repro/internal/pairs"
)

// A JaccardEngine computes the all-pairs contextual similarity matrix
// sC(p_i, p_j) for a slice of contextual sets (Step 1 of the framework).
// Engines differ only in speed and, for MinHash, exactness.
type JaccardEngine interface {
	// AllPairs returns the pairwise Jaccard similarity of sets.
	AllPairs(sets []Set) *PairScores
	// Name identifies the engine in benchmark output.
	Name() string
}

// BaselineEngine is the paper's baseline: every one of the O(K²) pairs is
// compared by probing a per-set hash table with the elements of the other
// set. The hash tables for all K sets are built once (the "hashing phase"),
// then each pair costs O(|p|) probes.
type BaselineEngine struct{}

// Name implements JaccardEngine.
func (BaselineEngine) Name() string { return "baseline" }

// AllPairs implements JaccardEngine.
func (e BaselineEngine) AllPairs(sets []Set) *PairScores {
	ps, _ := e.AllPairsCtx(context.Background(), sets)
	return ps
}

// AllPairsCtx is AllPairs with cooperative cancellation: it fills the
// matrix through pairs.Fill, which polls ctx every few dozen rows, and on
// cancellation discards the partial matrix and returns ctx.Err().
func (BaselineEngine) AllPairsCtx(ctx context.Context, sets []Set) (*PairScores, error) {
	n := len(sets)
	if ec := explain.FromContext(ctx); ec != nil {
		// The baseline probes every pair unconditionally; it prunes
		// nothing. Recording that makes engine comparisons explicit in
		// /v1/explain output.
		cand := int64(n) * int64(n-1) / 2
		ec.SetPruning(explain.Pruning{
			Engine: "baseline", Sets: n,
			CandidatePairs: cand, ComparedPairs: cand,
		})
	}
	// Hashing phase: one hash table per set.
	tables := make([]map[ItemID]struct{}, n)
	for i, s := range sets {
		t := make(map[ItemID]struct{}, s.Len())
		for _, v := range s.Items() {
			t[v] = struct{}{}
		}
		tables[i] = t
	}
	// Comparison phase: probe table i with the elements of set j.
	return pairs.Fill(ctx, n, func(ps *PairScores, i int) {
		ti := tables[i]
		li := sets[i].Len()
		for j := i + 1; j < n; j++ {
			inter := 0
			for _, v := range sets[j].Items() {
				if _, ok := ti[v]; ok {
					inter++
				}
			}
			if inter == 0 {
				continue
			}
			ps.Set(i, j, jaccard(inter, li, sets[j].Len()))
		}
	})
}

// MSJHEngine implements micro set Jaccard hashing (Algorithm 1). An
// inverted list is built per element holding the sets it appears in, in
// reverse (descending-index) order; pairs are then compared only if they
// provably share an element, and each list scan stops as soon as it reaches
// an index ≤ i, avoiding every redundant check. The result is exact.
type MSJHEngine struct{}

// Name implements JaccardEngine.
func (MSJHEngine) Name() string { return "msJh" }

// AllPairs implements JaccardEngine.
func (e MSJHEngine) AllPairs(sets []Set) *PairScores {
	ps, _ := e.AllPairsCtx(context.Background(), sets)
	return ps
}

// AllPairsCtx is AllPairs with cooperative cancellation, as for
// BaselineEngine.
func (MSJHEngine) AllPairsCtx(ctx context.Context, sets []Set) (*PairScores, error) {
	n := len(sets)

	// Step 1: generate the micro set hash table (msht). msHT[v] lists the
	// indices of the sets containing v. Appending while scanning sets in
	// increasing index order and then reading the list back-to-front is
	// equivalent to the paper's "add in front" reverse lists; we store
	// ascending and scan from the end so that the first index ≤ i
	// terminates the scan.
	msht := make(map[ItemID][]int32)
	for i, s := range sets {
		for _, v := range s.Items() {
			msht[v] = append(msht[v], int32(i))
		}
	}

	// Step 2: compare sets economically. For each p_i we accumulate the
	// intersection size against every later set that shares at least one
	// element, using a scratch counter array plus a touched list so the
	// per-i cost is proportional to the actual number of collisions.
	// Introspection (candidate vs compared pairs, postings cut by the
	// reverse-order rule) is gated on the context-carried collector: the
	// disabled path adds one per-set branch, never per-posting work.
	ec := explain.FromContext(ctx)
	var compared, scanned, cut int64
	counts := make([]int32, n)
	touched := make([]int32, 0, 64)
	ps, err := pairs.Fill(ctx, n, func(ps *PairScores, i int) {
		s := sets[i]
		touched = touched[:0]
		for _, v := range s.Items() {
			list := msht[v]
			// Reverse order: indices descend from the end of the list,
			// so stop at the first j ≤ i (that prefix was already
			// processed in earlier rows, or is i itself).
			t := len(list) - 1
			for ; t >= 0; t-- {
				j := list[t]
				if int(j) <= i {
					break
				}
				if counts[j] == 0 {
					touched = append(touched, j)
				}
				counts[j]++
			}
			if ec != nil {
				// The scan visited entries (t, len−1]; the prefix
				// [0, t] is exactly what the j > i early cut-off
				// skipped.
				scanned += int64(len(list) - 1 - t)
				cut += int64(t + 1)
			}
		}
		if ec != nil {
			compared += int64(len(touched))
		}
		li := s.Len()
		for _, j := range touched {
			inter := counts[j]
			counts[j] = 0
			ps.Set(i, int(j), jaccard(int(inter), li, sets[j].Len()))
		}
	})
	if err != nil {
		return nil, err
	}
	if ec != nil {
		cand := int64(n) * int64(n-1) / 2
		ec.SetPruning(explain.Pruning{
			Engine: "msJh", Sets: n,
			CandidatePairs: cand, ComparedPairs: compared,
			PrunedPairs:     cand - compared,
			PostingsScanned: scanned, PostingsCut: cut,
		})
	}
	return ps, nil
}

// MinHashEngine approximates all-pairs Jaccard with t independent min-wise
// hash signatures. It matches the paper's described use of minhash: a
// signature phase of K·t operations followed by K²·t/2 signature
// comparisons, with cost independent of |p| — effective only for large sets.
type MinHashEngine struct {
	// T is the signature length (number of hash functions); the paper's t.
	T int
	// Seed makes signatures reproducible.
	Seed int64
}

// Name implements JaccardEngine.
func (e MinHashEngine) Name() string { return "minhash" }

// AllPairs implements JaccardEngine.
func (e MinHashEngine) AllPairs(sets []Set) *PairScores {
	t := e.T
	if t <= 0 {
		t = 64
	}
	n := len(sets)
	ps := NewPairScores(n)

	// Universal-style hash family: h_r(v) = (a_r*v + b_r) mod 2^61-1,
	// with odd multipliers drawn from a seeded PRNG.
	const mersenne61 = (1 << 61) - 1
	rng := rand.New(rand.NewSource(e.Seed))
	as := make([]uint64, t)
	bs := make([]uint64, t)
	for r := 0; r < t; r++ {
		as[r] = uint64(rng.Int63())*2 + 1
		bs[r] = uint64(rng.Int63())
	}

	// Signature phase.
	sigs := make([][]uint64, n)
	for i, s := range sets {
		sig := make([]uint64, t)
		for r := range sig {
			sig[r] = ^uint64(0)
		}
		for _, v := range s.Items() {
			x := uint64(v) + 1
			for r := 0; r < t; r++ {
				h := (as[r]*x + bs[r]) % mersenne61
				if h < sig[r] {
					sig[r] = h
				}
			}
		}
		sigs[i] = sig
	}

	// Comparison phase: estimated Jaccard = fraction of matching minima.
	for i := 0; i < n; i++ {
		si := sigs[i]
		if sets[i].Len() == 0 {
			continue // empty sets have similarity 0 to everything
		}
		for j := i + 1; j < n; j++ {
			if sets[j].Len() == 0 {
				continue
			}
			match := 0
			sj := sigs[j]
			for r := 0; r < t; r++ {
				if si[r] == sj[r] {
					match++
				}
			}
			if match > 0 {
				ps.Set(i, j, float64(match)/float64(t))
			}
		}
	}
	return ps
}

// PCS computes the contextual proportionality vector pCS(p_i) (Eq. 3) for
// all sets using the given engine, returning both the vector and the
// pairwise cache for reuse by the greedy algorithms.
func PCS(engine JaccardEngine, sets []Set) ([]float64, *PairScores) {
	ps := engine.AllPairs(sets)
	return ps.RowSums(), ps
}
