package textctx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// figure4Sets reproduces the worked example of Figure 4 of the paper:
// p1:{a,b,c,d}, p2:{a,d}, p3:{e,f,g}, p4:{a,b,h}, p5:{b,c,i}.
func figure4Sets() ([]Set, *Dict) {
	d := NewDict()
	sets := []Set{
		NewSetFromStrings(d, []string{"a", "b", "c", "d"}),
		NewSetFromStrings(d, []string{"a", "d"}),
		NewSetFromStrings(d, []string{"e", "f", "g"}),
		NewSetFromStrings(d, []string{"a", "b", "h"}),
		NewSetFromStrings(d, []string{"b", "c", "i"}),
	}
	return sets, d
}

// figure4Want is the expected similarity matrix from Figure 4.
var figure4Want = map[[2]int]float64{
	{0, 1}: 2.0 / 4, {0, 2}: 0, {0, 3}: 2.0 / 5, {0, 4}: 2.0 / 5,
	{1, 2}: 0, {1, 3}: 1.0 / 4, {1, 4}: 0,
	{2, 3}: 0, {2, 4}: 0,
	{3, 4}: 1.0 / 5,
}

func checkFigure4(t *testing.T, name string, ps *PairScores) {
	t.Helper()
	for pair, want := range figure4Want {
		if got := ps.At(pair[0], pair[1]); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: sC(p%d, p%d) = %g, want %g", name, pair[0]+1, pair[1]+1, got, want)
		}
	}
}

func TestBaselineFigure4(t *testing.T) {
	sets, _ := figure4Sets()
	checkFigure4(t, "baseline", BaselineEngine{}.AllPairs(sets))
}

func TestMSJHFigure4(t *testing.T) {
	sets, _ := figure4Sets()
	checkFigure4(t, "msJh", MSJHEngine{}.AllPairs(sets))
}

func TestEnginesEmptyAndSingleton(t *testing.T) {
	for _, e := range []JaccardEngine{BaselineEngine{}, MSJHEngine{}, MinHashEngine{T: 16}} {
		ps := e.AllPairs(nil)
		if ps.N() != 0 {
			t.Errorf("%s: AllPairs(nil).N = %d", e.Name(), ps.N())
		}
		ps = e.AllPairs([]Set{NewSet(1, 2)})
		if ps.N() != 1 {
			t.Errorf("%s: singleton N = %d", e.Name(), ps.N())
		}
	}
}

func TestEnginesWithEmptySets(t *testing.T) {
	sets := []Set{{}, NewSet(1, 2), {}, NewSet(1, 2)}
	for _, e := range []JaccardEngine{BaselineEngine{}, MSJHEngine{}, MinHashEngine{T: 32}} {
		ps := e.AllPairs(sets)
		if got := ps.At(0, 2); got != 0 {
			t.Errorf("%s: sC(empty, empty) = %g, want 0", e.Name(), got)
		}
		if got := ps.At(0, 1); got != 0 {
			t.Errorf("%s: sC(empty, nonempty) = %g, want 0", e.Name(), got)
		}
	}
	// The exact engines must still see identical non-empty sets as 1.
	for _, e := range []JaccardEngine{BaselineEngine{}, MSJHEngine{}} {
		if got := e.AllPairs(sets).At(1, 3); got != 1 {
			t.Errorf("%s: sC(identical) = %g, want 1", e.Name(), got)
		}
	}
}

// randomSets generates n sets over a universe of size u with sizes up to m.
func randomSets(rng *rand.Rand, n, u, m int) []Set {
	sets := make([]Set, n)
	for i := range sets {
		sz := rng.Intn(m + 1)
		ids := make([]ItemID, sz)
		for j := range ids {
			ids[j] = ItemID(rng.Intn(u))
		}
		sets[i] = NewSet(ids...)
	}
	return sets
}

// Property: msJh is exactly equivalent to the baseline (and hence to the
// set-theoretic definition) on arbitrary inputs.
func TestMSJHEquivalentToBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		sets := randomSets(rng, 2+rng.Intn(40), 1+rng.Intn(100), 20)
		base := BaselineEngine{}.AllPairs(sets)
		ms := MSJHEngine{}.AllPairs(sets)
		if d := base.MaxAbsDiff(ms); d != 0 {
			t.Fatalf("trial %d: msJh differs from baseline by %g", trial, d)
		}
	}
}

// Property: both exact engines agree with the direct merge-based Jaccard.
func TestEnginesMatchDefinition(t *testing.T) {
	f := func(ra, rb, rc []uint8) bool {
		sets := []Set{randomSet(ra), randomSet(rb), randomSet(rc)}
		for _, e := range []JaccardEngine{BaselineEngine{}, MSJHEngine{}} {
			ps := e.AllPairs(sets)
			for i := 0; i < 3; i++ {
				for j := i + 1; j < 3; j++ {
					if math.Abs(ps.At(i, j)-sets[i].Jaccard(sets[j])) > 1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// MinHash is an unbiased estimator: with a long signature it must land
// close to the exact similarity on average.
func TestMinHashApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sets := randomSets(rng, 30, 60, 40)
	exact := BaselineEngine{}.AllPairs(sets)
	est := MinHashEngine{T: 512, Seed: 1}.AllPairs(sets)
	var sumErr float64
	var cnt int
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			sumErr += math.Abs(exact.At(i, j) - est.At(i, j))
			cnt++
		}
	}
	if mean := sumErr / float64(cnt); mean > 0.05 {
		t.Errorf("minhash mean abs error = %g, want ≤ 0.05 with t=512", mean)
	}
}

func TestMinHashDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := randomSets(rng, 10, 40, 15)
	a := MinHashEngine{T: 64, Seed: 9}.AllPairs(sets)
	b := MinHashEngine{T: 64, Seed: 9}.AllPairs(sets)
	if a.MaxAbsDiff(b) != 0 {
		t.Error("same seed produced different estimates")
	}
}

func TestMinHashDefaultT(t *testing.T) {
	// T ≤ 0 must fall back to a sane default rather than panic.
	sets := []Set{NewSet(1, 2, 3), NewSet(2, 3, 4)}
	ps := MinHashEngine{}.AllPairs(sets)
	if got := ps.At(0, 1); got < 0 || got > 1 {
		t.Errorf("estimate out of range: %g", got)
	}
}

func TestPCS(t *testing.T) {
	sets, _ := figure4Sets()
	pcs, cache := PCS(MSJHEngine{}, sets)
	// pCS(p1) = 1/2 + 0 + 2/5 + 2/5 = 1.3 (Figure 4 row sums).
	want := []float64{1.3, 0.75, 0, 0.85, 0.6}
	for i := range want {
		if math.Abs(pcs[i]-want[i]) > 1e-12 {
			t.Errorf("pCS(p%d) = %g, want %g", i+1, pcs[i], want[i])
		}
	}
	if cache.N() != len(sets) {
		t.Error("cache has wrong size")
	}
}

func TestEngineNames(t *testing.T) {
	names := map[string]JaccardEngine{
		"baseline":       BaselineEngine{},
		"msJh":           MSJHEngine{},
		"minhash":        MinHashEngine{},
		"naive-inverted": NaiveInvertedEngine{},
	}
	for want, e := range names {
		if e.Name() != want {
			t.Errorf("Name = %q, want %q", e.Name(), want)
		}
	}
}

func benchSets(k, p int) []Set {
	rng := rand.New(rand.NewSource(11))
	// Universe sized so that sets overlap moderately, like contextual sets
	// drawn from a shared vocabulary.
	return randomSets(rng, k, p*10, p)
}

func BenchmarkBaselineK100(b *testing.B)  { benchEngine(b, BaselineEngine{}, 100, 100) }
func BenchmarkMSJHK100(b *testing.B)      { benchEngine(b, MSJHEngine{}, 100, 100) }
func BenchmarkBaselineK1000(b *testing.B) { benchEngine(b, BaselineEngine{}, 1000, 100) }
func BenchmarkMSJHK1000(b *testing.B)     { benchEngine(b, MSJHEngine{}, 1000, 100) }

func benchEngine(b *testing.B, e JaccardEngine, k, p int) {
	sets := benchSets(k, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AllPairs(sets)
	}
}
