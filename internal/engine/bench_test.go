package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
)

var (
	benchDataOnce sync.Once
	benchDataVal  *dataset.Dataset
)

// benchData mirrors the propserve demo corpus (DBpediaLike seed 7, 1500
// places) so the benchmarks time the served configuration.
func benchData(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	benchDataOnce.Do(func() {
		cfg := dataset.DBpediaLike(7)
		cfg.Places = 1500
		d, err := dataset.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		benchDataVal = d
	})
	return benchDataVal
}

func benchRequest(e *Engine, x float64) *QueryRequest {
	req := e.NewRequest()
	req.K, req.SmallK = 200, 10
	req.X, req.Y = x, 50
	return req
}

// BenchmarkEngineHit measures the repeated-query path: score set and
// selection both served from cache.
func BenchmarkEngineHit(b *testing.B) {
	e := New(benchData(b), Options{})
	if _, err := e.Query(context.Background(), benchRequest(e, 50)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(context.Background(), benchRequest(e, 50)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineMiss measures the cold path: every iteration queries a
// fresh location, so Step 1 (retrieval + all-pairs scoring) runs in full.
// A tiny LRU keeps the working set bounded while guaranteeing misses.
func BenchmarkEngineMiss(b *testing.B) {
	e := New(benchData(b), Options{CacheEntries: 2})
	e.SquaredTable() // table cost is one-time and shared; exclude it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := 5 + float64(i%100000)*1e-4 // distinct key every iteration
		if _, err := e.Query(context.Background(), benchRequest(e, x)); err != nil {
			b.Fatal(err)
		}
	}
}
