package dataset

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

func shardTestData(t *testing.T, seed int64, places int) *Dataset {
	t.Helper()
	cfg := DBpediaLike(seed)
	cfg.Places = places
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func assertRetrieveEqual(t *testing.T, d *Dataset, sv *ShardView, q Query, K int, label string) {
	t.Helper()
	want, err := d.Retrieve(q, K)
	if err != nil {
		t.Fatalf("%s: unsharded: %v", label, err)
	}
	got, err := sv.Retrieve(context.Background(), q, K)
	if err != nil {
		t.Fatalf("%s: sharded: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: sharded returned %d places, unsharded %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Rel != want[i].Rel {
			t.Fatalf("%s: rank %d: sharded (%q, %v) != unsharded (%q, %v)",
				label, i, got[i].ID, got[i].Rel, want[i].ID, want[i].Rel)
		}
		if got[i].Loc != want[i].Loc {
			t.Fatalf("%s: rank %d: location diverged", label, i)
		}
	}
}

// assertShardRecords checks that every object in each shard's tree sits
// at, and carries the context of, the corpus record its Global entry
// names, and that the shard holds exactly its Global members.
func assertShardRecords(t *testing.T, sv *ShardView, d *Dataset) {
	t.Helper()
	for sid, sh := range sv.Shards {
		if sh.Index.Len() != len(sh.Global) {
			t.Fatalf("shard %d: tree holds %d objects, Global %d", sid, sh.Index.Len(), len(sh.Global))
		}
		bounds, ok := sh.Index.Bounds()
		if !ok {
			continue
		}
		for _, o := range sh.Index.RangeSearch(bounds) {
			rec := d.Places[sh.Global[o.ID]]
			if o.Loc != rec.Loc || !o.Terms.Equal(rec.Context) {
				t.Fatalf("shard %d local %d: tree object does not match corpus record %q",
					sid, o.ID, rec.Label)
			}
		}
	}
}

// TestShardViewPartition: every place lands in exactly one shard, the
// shard its location maps to, and Global lists are strictly increasing
// (local order = global order). A one-shard view is the corpus itself.
func TestShardViewPartition(t *testing.T) {
	d := shardTestData(t, 3, 400)
	for _, n := range []int{1, 2, 3, 4, 7} {
		sv, err := NewShardView(d, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sv.Shards) != n {
			t.Fatalf("len(Shards) = %d, want %d", len(sv.Shards), n)
		}
		seen := make(map[int32]int)
		total := 0
		for sid, sh := range sv.Shards {
			total += len(sh.Global)
			prev := int32(-1)
			for li, g := range sh.Global {
				if g <= prev {
					t.Fatalf("shard %d: Global not strictly increasing at %d", sid, li)
				}
				prev = g
				if other, dup := seen[g]; dup {
					t.Fatalf("place %d in shards %d and %d", g, other, sid)
				}
				seen[g] = sid
				if got := sv.shardOf(d.Places[g].Loc); got != sid {
					t.Fatalf("place %d held by shard %d but maps to shard %d", g, sid, got)
				}
			}
		}
		if total != len(d.Places) {
			t.Fatalf("n=%d: shards hold %d places, corpus %d", n, total, len(d.Places))
		}
		assertShardRecords(t, sv, d)
		if n == 1 && sv.Shards[0].Index != d.Index {
			t.Fatal("one-shard view bulk-loaded a tree of its own instead of serving d.Index")
		}
	}
	if _, err := NewShardView(d, 0, 0); err == nil {
		t.Fatal("NewShardView accepted 0 shards")
	}
}

// TestShardRetrieveEquivalence is the core exactness property: sharded
// fan-out is bitwise identical to the unsharded tree across shard
// counts, K values and query positions, including K beyond the corpus.
func TestShardRetrieveEquivalence(t *testing.T) {
	d := shardTestData(t, 3, 400)
	qs, err := d.GenQueries(6, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 7} {
		sv, err := NewShardView(d, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			for _, K := range []int{1, 10, 100, 400, 1000} {
				assertRetrieveEqual(t, d, sv, q, K,
					fmt.Sprintf("n=%d q=%d K=%d", n, qi, K))
			}
		}
		// No keywords: pure proximity ranking must also agree.
		assertRetrieveEqual(t, d, sv, Query{Loc: qs[0].Loc}, 50,
			fmt.Sprintf("n=%d no-keywords", n))
	}
}

// A traced sharded retrieve must record one shard_retrieve child span
// per populated shard plus a merge span, all under the surrounding
// retrieve span, with the attribution attrs the trace API exposes.
func TestShardRetrieveSpans(t *testing.T) {
	d := shardTestData(t, 7, 300)
	sv, err := NewShardView(d, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	populated := 0
	for _, sh := range sv.Shards {
		if len(sh.Global) > 0 {
			populated++
		}
	}

	tr := telemetry.NewTrace()
	ctx := telemetry.WithTrace(context.Background(), tr)
	rctx, endRetrieve := telemetry.BeginSpan(ctx, telemetry.StageRetrieve)
	q := Query{Loc: d.Places[0].Loc, Keywords: d.Places[0].Context}
	if _, err := sv.Retrieve(rctx, q, 50); err != nil {
		t.Fatal(err)
	}
	endRetrieve()

	var retrieveID int
	for _, s := range tr.Spans() {
		if s.Stage == telemetry.StageRetrieve {
			retrieveID = s.ID
		}
	}
	if retrieveID == 0 {
		t.Fatal("no retrieve span recorded")
	}
	shardSpans, mergeSpans := 0, 0
	for _, s := range tr.Spans() {
		switch s.Stage {
		case telemetry.StageShard:
			shardSpans++
			if s.Parent != retrieveID {
				t.Fatalf("shard span parent = %d, want retrieve span %d", s.Parent, retrieveID)
			}
			keys := map[string]any{}
			for _, a := range s.Attrs {
				keys[a.Key] = a.Value
			}
			for _, want := range []string{"shard", "primed", "refills", "merge_wait_ms", "expanded", "scored"} {
				if _, ok := keys[want]; !ok {
					t.Fatalf("shard span missing attr %q (has %v)", want, keys)
				}
			}
			// Every populated shard opens at least its root (a leaf on
			// a tiny shard) and scores at least the results it primed.
			if keys["expanded"].(int) < 1 || keys["scored"].(int) < keys["primed"].(int) {
				t.Fatalf("shard span work counters implausible: %v", keys)
			}
		case telemetry.StageMerge:
			mergeSpans++
			if s.Parent != retrieveID {
				t.Fatalf("merge span parent = %d, want %d", s.Parent, retrieveID)
			}
		}
	}
	if shardSpans != populated {
		t.Fatalf("recorded %d shard spans, want one per populated shard (%d)", shardSpans, populated)
	}
	if mergeSpans != 1 {
		t.Fatalf("recorded %d merge spans, want 1", mergeSpans)
	}
}

// An untraced retrieve must record nothing and allocate no tracing
// state — the disabled path is a nil check.
func TestShardRetrieveUntraced(t *testing.T) {
	d := shardTestData(t, 7, 120)
	sv, err := NewShardView(d, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Loc: d.Places[0].Loc, Keywords: d.Places[0].Context}
	if _, err := sv.Retrieve(context.Background(), q, 20); err != nil {
		t.Fatal(err)
	}
}
