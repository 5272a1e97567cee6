package textctx

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestMSJHParallelIdentical: msJh must reproduce the baseline oracle bit
// for bit at every worker count, on instance sizes on both sides of the
// row driver's fan-out threshold.
func TestMSJHParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		sets := randomSets(rng, 2+rng.Intn(120), 1+rng.Intn(200), 25)
		want := BaselineEngine{}.AllPairs(sets)
		for _, workers := range []int{0, 1, 2, 3, 8, 200} {
			got := MSJHEngine{Workers: workers}.AllPairs(sets)
			for i := 0; i < len(sets); i++ {
				for j := i + 1; j < len(sets); j++ {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("trial %d workers %d: sC(%d,%d) = %v, want %v",
							trial, workers, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

func BenchmarkMSJHK2000(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchEngine(b, MSJHEngine{Workers: workers}, 2000, 100)
		})
	}
}
