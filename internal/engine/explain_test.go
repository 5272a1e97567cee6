package engine

import (
	"context"
	"testing"
)

// TestExplainReturnsReport: Explain evaluates the query and yields a
// self-contained report with the greedy trace, pruning counters and grid
// statistics, matching what Query would have selected.
func TestExplainReturnsReport(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	req.K, req.SmallK = 80, 8

	res, rep, err := e.Explain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheBypass {
		t.Errorf("Cache = %q, want %q", res.Cache, CacheBypass)
	}
	if rep.Algorithm != req.Algo {
		t.Errorf("Algorithm = %q, want %q", rep.Algorithm, req.Algo)
	}
	if len(rep.Rounds) == 0 {
		t.Error("report has no greedy rounds")
	}
	if rep.Pruning == nil || rep.Pruning.CandidatePairs == 0 {
		t.Fatalf("Pruning = %+v, want populated", rep.Pruning)
	}
	if rep.Grid == nil || rep.Grid.Kind != "squared" || rep.Grid.SampledPairs == 0 {
		t.Errorf("Grid = %+v, want squared stats with a sampled error", rep.Grid)
	}

	// The same request through Query must select identically — explain
	// is read-only introspection.
	q := e.NewRequest()
	q.K, q.SmallK = 80, 8
	qres, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(res.Sel.Indices, qres.Sel.Indices) {
		t.Errorf("Explain selected %v, Query selected %v", res.Sel.Indices, qres.Sel.Indices)
	}
}

// TestExplainBypassesCache: a resident score set does not satisfy an
// Explain (which must recompute to collect events), but an Explain on a
// cold key warms the cache for subsequent queries.
func TestExplainBypassesCache(t *testing.T) {
	e := New(testData(t), Options{})

	// Cold key: Explain builds, warms the cache.
	req := e.NewRequest()
	req.K, req.SmallK = 70, 7
	if _, _, err := e.Explain(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Explains != 1 || s.Builds != 1 {
		t.Errorf("after cold explain: Explains = %d, Builds = %d, want 1, 1", s.Explains, s.Builds)
	}
	q := e.NewRequest()
	q.K, q.SmallK = 70, 7
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheHit {
		t.Errorf("query after explain: Cache = %q, want hit (explain warms cold keys)", res.Cache)
	}

	// Warm key: Explain still rebuilds (report must be fresh), leaving the
	// resident entry in place.
	req2 := e.NewRequest()
	req2.K, req2.SmallK = 70, 7
	res2, rep, err := e.Explain(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cache != CacheBypass || len(rep.Rounds) == 0 {
		t.Errorf("warm explain: Cache = %q, rounds = %d; want bypass with a trace", res2.Cache, len(rep.Rounds))
	}
	if s := e.Stats(); s.Builds != 2 {
		t.Errorf("warm explain did not rebuild: Builds = %d, want 2", s.Builds)
	}
	// Hits/misses unchanged by the explains themselves: one query → one hit.
	if s := e.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("Hits = %d, Misses = %d, want 1, 0 (explains are not lookups)", s.Hits, s.Misses)
	}
}

// TestStatsHitRatio pins the hit-ratio definition: hits over lookups,
// zero before any lookup.
func TestStatsHitRatio(t *testing.T) {
	e := New(testData(t), Options{})
	if r := e.Stats().HitRatio(); r != 0 {
		t.Errorf("HitRatio before any lookup = %v, want 0", r)
	}
	req := e.NewRequest()
	req.K, req.SmallK = 60, 6
	for i := 0; i < 4; i++ {
		r := e.NewRequest()
		r.K, r.SmallK = 60, 6
		if _, err := e.Query(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	// 1 miss + 3 hits = 0.75.
	if r := e.Stats().HitRatio(); r != 0.75 {
		t.Errorf("HitRatio = %v, want 0.75 (3 hits / 4 lookups)", r)
	}
}
