package engine

// Engine-level shard equivalence: an engine at any shard count answers
// every query — and keeps answering after mutations — exactly like the
// raw pipeline over the corpus's own tree.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/telemetry"
)

// assertMatchesOracle requires got, the engine's answer to req, to be
// bitwise the raw pipeline's answer over d (dataset.Retrieve, no shard
// view, no engine): same retrieved places, selection and breakdown.
func assertMatchesOracle(t *testing.T, label string, d *dataset.Dataset, req *QueryRequest, got *Result) {
	t.Helper()
	sel, bd := uncached(t, d, req)
	places, err := d.Retrieve(dataset.Query{Loc: geo.Pt(req.X, req.Y), Keywords: req.KeywordSet()}, req.K)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sel.HPF != sel.HPF || !sameIndices(got.Sel.Indices, sel.Indices) {
		t.Fatalf("%s: selection diverged: engine %v (%v), oracle %v (%v)",
			label, got.Sel.Indices, got.Sel.HPF, sel.Indices, sel.HPF)
	}
	if got.Breakdown != bd {
		t.Fatalf("%s: breakdown diverged: engine %+v, oracle %+v", label, got.Breakdown, bd)
	}
	if got.SS.K() != len(places) {
		t.Fatalf("%s: engine retrieved %d places, oracle %d", label, got.SS.K(), len(places))
	}
	for i, p := range places {
		if got.SS.Places[i].ID != p.ID || got.SS.Places[i].Rel != p.Rel {
			t.Fatalf("%s: rank %d: engine (%q, %v), oracle (%q, %v)", label, i,
				got.SS.Places[i].ID, got.SS.Places[i].Rel, p.ID, p.Rel)
		}
	}
}

// assertShardCount checks an engine's shard reporting: Options.Shards
// shards (0 counts as 1) whose footprints cover the whole corpus.
func assertShardCount(t *testing.T, e *Engine, shards int) {
	t.Helper()
	want := max(shards, 1)
	if st := e.Stats(); st.Shards != want {
		t.Fatalf("Shards=%d: Stats.Shards = %d, want %d", shards, st.Shards, want)
	}
	info := e.ShardInfo()
	if len(info) != want {
		t.Fatalf("Shards=%d: ShardInfo reports %d shards, want %d", shards, len(info), want)
	}
	total := 0
	for _, in := range info {
		total += in.Places
	}
	if total != len(e.Corpus().Places) {
		t.Fatalf("Shards=%d: shards hold %d places, corpus %d", shards, total, len(e.Corpus().Places))
	}
}

// TestShardedEngineEquivalence runs a parameter grid through engines of
// 0, 1 and 4 shards and requires bitwise-identical results.
func TestShardedEngineEquivalence(t *testing.T) {
	d := testData(t)
	for _, shards := range []int{0, 1, 4} {
		e := New(d, Options{Shards: shards})
		assertShardCount(t, e, shards)
		for _, tc := range []struct {
			K, k    int
			lambda  float64
			gamma   float64
			algo    string
			spatial string
		}{
			{100, 10, 0.5, 0.5, "abp", "squared"},
			{100, 10, 0.5, 0.5, "iadu", "exact"},
			{200, 20, 0.25, 0.75, "abp", "radial"},
			{60, 6, 0.9, 0.1, "iadu", "squared"},
			{400, 8, 0.5, 0.5, "topk", "exact"},
		} {
			label := fmt.Sprintf("Shards=%d K=%d k=%d λ=%v γ=%v %s/%s",
				shards, tc.K, tc.k, tc.lambda, tc.gamma, tc.algo, tc.spatial)
			req := e.NewRequest()
			req.K, req.SmallK = tc.K, tc.k
			req.Lambda, req.Gamma = tc.lambda, tc.gamma
			req.Algo, req.Spatial = tc.algo, tc.spatial
			req.Keywords = []string{"park", "museum"}
			got, err := e.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertMatchesOracle(t, label, d, req, got)
		}
	}
}

// TestShardedEngineMutationEquivalence feeds engines of 0, 1 and 4
// shards the same mutation stream as a dataset mutated through
// Dataset.Apply and re-checks equivalence at every epoch, including that
// shard epochs never exceed the corpus epoch.
func TestShardedEngineMutationEquivalence(t *testing.T) {
	d := testData(t)
	for _, shards := range []int{0, 1, 4} {
		e := New(d, Options{Shards: shards})
		oracle := d
		for gen := 1; gen <= 4; gen++ {
			m := Mutation{
				Upserts: []dataset.Upsert{
					{ID: fmt.Sprintf("shard-live:%d", gen), X: 30 + float64(gen), Y: 60, Context: []string{"shard-live"}},
				},
				Deletes: []string{d.Places[gen*11].Label},
			}
			var want dataset.ApplyStats
			var err error
			oracle, want, err = oracle.Apply(dataset.Batch{Upserts: m.Upserts, Deletes: m.Deletes})
			if err != nil {
				t.Fatalf("gen %d: oracle apply: %v", gen, err)
			}
			got, err := e.Mutate(context.Background(), m)
			if err != nil {
				t.Fatalf("Shards=%d gen %d: mutate: %v", shards, gen, err)
			}
			if got.Epoch != uint64(gen) || got.Places != len(oracle.Places) ||
				got.Upserted != want.Upserted || got.Deleted != want.Deleted {
				t.Fatalf("Shards=%d gen %d: mutation result %+v, oracle %+v over %d places",
					shards, gen, got, want, len(oracle.Places))
			}
			assertShardCount(t, e, shards)

			for _, kw := range [][]string{{"shard-live"}, {"park"}, nil} {
				req := e.NewRequest()
				req.K, req.SmallK = 120, 12
				req.Keywords = kw
				res, err := e.Query(context.Background(), req)
				if err != nil {
					t.Fatalf("Shards=%d gen %d: query: %v", shards, gen, err)
				}
				assertMatchesOracle(t, fmt.Sprintf("Shards=%d gen=%d kw=%v", shards, gen, kw), oracle, req, res)
			}

			for i, info := range e.ShardInfo() {
				if info.Epoch > e.Epoch() {
					t.Fatalf("Shards=%d gen %d: shard %d epoch %d exceeds corpus epoch %d",
						shards, gen, i, info.Epoch, e.Epoch())
				}
			}
		}
	}
}

// TestOneShardMissRecordsUnshardedSpans: a miss on a one-shard engine
// does not fan out, so its trace carries no shard_retrieve or merge span
// (its stage_ms and Server-Timing are the unsharded ones), while a
// four-shard miss records both.
func TestOneShardMissRecordsUnshardedSpans(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		e := New(testData(t), Options{Shards: shards})
		req := e.NewRequest()
		req.K, req.SmallK = 100, 10
		tr := telemetry.NewTrace()
		res, err := e.Query(telemetry.WithTrace(context.Background(), tr), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != CacheMiss {
			t.Fatalf("Shards=%d: cache = %q, want a miss", shards, res.Cache)
		}
		stages := tr.Stages()
		if _, ok := stages[telemetry.StageRetrieve]; !ok {
			t.Fatalf("Shards=%d: no retrieve stage: %v", shards, stages)
		}
		_, shard := stages[telemetry.StageShard]
		_, merge := stages[telemetry.StageMerge]
		if fanout := shards > 1; shard != fanout || merge != fanout {
			t.Fatalf("Shards=%d: shard_retrieve span %v, merge span %v; want both %v (stages %v)",
				shards, shard, merge, fanout, stages)
		}
	}
}
