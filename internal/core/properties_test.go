package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

// TestEvaluateAffineInLambda: HPF(R) is affine in λ, so the value at any
// λ is the λ-interpolation of the endpoints.
func TestEvaluateAffineInLambda(t *testing.T) {
	ss := defaultScoreSet(t, 20, 61)
	r := []int{0, 4, 9, 15}
	at0 := ss.Evaluate(r, 0).Total
	at1 := ss.Evaluate(r, 1).Total
	f := func(raw uint8) bool {
		lambda := float64(raw) / 255
		want := (1-lambda)*at0 + lambda*at1
		got := ss.Evaluate(r, lambda).Total
		return almostEqual(got, want, 1e-9*(1+abs(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestEvaluateOrderInvariant: HPF(R) does not depend on the order of the
// indices in R.
func TestEvaluateOrderInvariant(t *testing.T) {
	ss := defaultScoreSet(t, 18, 67)
	rng := rand.New(rand.NewSource(1))
	base := []int{2, 5, 8, 11, 14}
	want := ss.Evaluate(base, 0.5).Total
	for trial := 0; trial < 20; trial++ {
		perm := append([]int(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := ss.Evaluate(perm, 0.5).Total; !almostEqual(got, want, 1e-9) {
			t.Fatalf("order-dependent HPF: %g vs %g", got, want)
		}
	}
}

// TestPairHPFSymmetric: HPF(p_i, p_j) = HPF(p_j, p_i).
func TestPairHPFSymmetric(t *testing.T) {
	ss := defaultScoreSet(t, 15, 71)
	f := func(ri, rj, rk, rl uint8) bool {
		i := int(ri) % ss.K()
		j := int(rj) % ss.K()
		if i == j {
			return true
		}
		k := 2 + int(rk)%8
		lambda := float64(rl) / 255
		return almostEqual(ss.PairHPF(i, j, k, lambda), ss.PairHPF(j, i, k, lambda), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestScoreRanges: pCS, pSS ∈ [0, K−1] and sF ∈ [0, 1] on arbitrary
// inputs — the ranges the paper's normalisations rely on.
func TestScoreRanges(t *testing.T) {
	q := geo.Pt(0, 0)
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		places := makePlaces(rng, q, 30, 8, 20, 0)
		ss := mustScores(t, q, places, ScoreOptions{Gamma: 0.5})
		kMax := float64(ss.K() - 1)
		for i := 0; i < ss.K(); i++ {
			if ss.PCS[i] < 0 || ss.PCS[i] > kMax+1e-9 {
				t.Fatalf("pCS[%d] = %g outside [0, %g]", i, ss.PCS[i], kMax)
			}
			if ss.PSS[i] < 0 || ss.PSS[i] > kMax+1e-9 {
				t.Fatalf("pSS[%d] = %g outside [0, %g]", i, ss.PSS[i], kMax)
			}
			for j := i + 1; j < ss.K(); j++ {
				if _, _, sf := ss.Pair(i, j); sf < -1e-12 || sf > 1+1e-12 {
					t.Fatalf("sF(%d,%d) = %g outside [0, 1]", i, j, sf)
				}
			}
		}
	}
}

// TestScoreSetConcurrentReads: a ScoreSet is read-only after Step 1, so
// concurrent Step-2 runs over the same set must be race-free and agree.
func TestScoreSetConcurrentReads(t *testing.T) {
	ss := defaultScoreSet(t, 60, 73)
	p := Params{K: 8, Lambda: 0.5, Gamma: 0.5}
	want, err := ABP(ss, p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ABP(ss, p)
			if err != nil {
				errs <- err
				return
			}
			if !equalInts(got.Indices, want.Indices) {
				errs <- errMismatch
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent ABP runs disagreed" }
