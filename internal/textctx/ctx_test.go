package textctx

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// ctxEngines are the engines with a cancellable AllPairsCtx.
var ctxEngines = []interface {
	JaccardEngine
	AllPairsCtx(ctx context.Context, sets []Set) (*PairScores, error)
}{MSJHEngine{}, BaselineEngine{}}

func ctxTestSets(n, vocab int, seed int64) []Set {
	rng := rand.New(rand.NewSource(seed))
	sets := make([]Set, n)
	for i := range sets {
		ids := make([]ItemID, 1+rng.Intn(8))
		for j := range ids {
			ids[j] = ItemID(rng.Intn(vocab))
		}
		sets[i] = NewSet(ids...)
	}
	return sets
}

// TestContextEnginesCancelled verifies every ctxEngines entry rejects a dead
// context instead of completing the quadratic comparison work.
func TestContextEnginesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := ctxTestSets(200, 40, 1)
	for _, e := range ctxEngines {
		if _, err := e.AllPairsCtx(ctx, sets); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.Name(), err)
		}
	}
}

// TestContextEnginesLiveMatchAllPairs pins that the ctx variants compute
// the same matrix as the context-free entry points.
func TestContextEnginesLiveMatchAllPairs(t *testing.T) {
	sets := ctxTestSets(120, 30, 2)
	want := MSJHEngine{}.AllPairs(sets)
	for _, e := range ctxEngines {
		got, err := e.AllPairsCtx(context.Background(), sets)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("%s: At(%d,%d) = %v, want %v", e.Name(), i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}
