package main

// Shard-equivalence property suite: a server running with -shards=4 must
// be observationally identical to a default ("unsharded": one shard, the
// corpus's own tree) one through /v1/search —
// same result IDs, same scores, same diagnostics (modulo per-request
// timings, which stripVolatile removes). The engine-level proof lives in
// internal/engine/shard_test.go; this suite pins the property at the
// HTTP boundary, across the query-parameter grid and across a live
// corpus mutation applied to both servers.

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// equivalenceQueries is the K/k/λ/γ × algorithm × spatial-mode grid the
// suite compares, plus keyword-filtered and off-center variants.
func equivalenceQueries(keyword string) []string {
	var qs []string
	for _, K := range []int{40, 120} {
		for _, k := range []int{5, 10} {
			for _, lg := range []string{"", "&lambda=0.4&gamma=0.7"} {
				for _, algo := range []string{"abp", "iadu"} {
					for _, spatial := range []string{"squared", "radial"} {
						qs = append(qs, fmt.Sprintf("x=50&y=50&K=%d&k=%d%s&algo=%s&spatial=%s",
							K, k, lg, algo, spatial))
					}
				}
			}
		}
	}
	qs = append(qs,
		"x=12&y=87&K=80&k=8",
		"x=50&y=50&K=60&k=6&keywords="+keyword,
		"x=50&y=50&K=60&k=6&keywords="+keyword+",beacon-eq",
	)
	return qs
}

func TestShardEquivalenceHTTP(t *testing.T) {
	unsharded := testServerCfg(t, Config{EnableMutation: true})
	sharded := testServerCfg(t, Config{EnableMutation: true, Shards: 4})
	if got := sharded.def.Eng.Stats().Shards; got != 4 {
		t.Fatalf("sharded server reports %d shards, want 4", got)
	}
	word := unsharded.def.Eng.Corpus().Places[0].Context.Words(unsharded.def.Eng.Corpus().Dict)[0]
	queries := equivalenceQueries(word)

	compare := func(phase string) {
		t.Helper()
		for _, q := range queries {
			a := get(t, unsharded, "/v1/search?"+q)
			b := get(t, sharded, "/v1/search?"+q)
			if a.Code != http.StatusOK || b.Code != a.Code {
				t.Fatalf("%s: %q: status unsharded=%d sharded=%d: %s", phase, q, a.Code, b.Code, b.Body.String())
			}
			sa := stripVolatile(t, a.Body.Bytes())
			sb := stripVolatile(t, b.Body.Bytes())
			if !reflect.DeepEqual(sa, sb) {
				t.Errorf("%s: %q diverges:\nunsharded: %v\nsharded:   %v", phase, q, sa, sb)
			}
		}
	}
	compare("pre-mutation")

	// The same mutation on both servers — through the un-scoped alias on
	// one and the corpus-scoped route on the other, so the suite also
	// witnesses the two route forms being the same handler. It upserts a
	// keyword cluster near one query point and deletes real places (which
	// forces a rebuild of the shards that held them).
	mutation := map[string]any{
		"upserts": []map[string]any{
			{"id": "eq:a", "x": 50.01, "y": 50, "context": []string{"beacon-eq", word}},
			{"id": "eq:b", "x": 49.99, "y": 50.02, "context": []string{"beacon-eq"}},
			{"id": "eq:c", "x": 12.3, "y": 86.9, "context": []string{word}},
		},
		"deletes": []string{
			unsharded.def.Eng.Corpus().Places[3].Label,
			unsharded.def.Eng.Corpus().Places[250].Label,
		},
	}
	ra := postJSON(t, unsharded, "/v1/corpus", mutation)
	rb := postJSON(t, sharded, "/v1/corpora/default/corpus", mutation)
	if ra.Code != http.StatusOK || rb.Code != http.StatusOK {
		t.Fatalf("mutation: unsharded=%d sharded=%d: %s", ra.Code, rb.Code, rb.Body.String())
	}
	ma := stripVolatile(t, ra.Body.Bytes())
	mb := stripVolatile(t, rb.Body.Bytes())
	// The cache-sweep count is an implementation detail of each server's
	// cache fill pattern, not a corpus property.
	delete(ma, "swept_entries")
	delete(mb, "swept_entries")
	if !reflect.DeepEqual(ma, mb) {
		t.Errorf("mutation results diverge:\nunsharded: %v\nsharded:   %v", ma, mb)
	}

	compare("post-mutation")
}

// TestShardEquivalenceExplain extends the property to /v1/explain: the
// per-iteration trace is a function of the score set, so a sharded
// Step-1 that merges exactly must reproduce it verbatim.
func TestShardEquivalenceExplain(t *testing.T) {
	unsharded := testServerCfg(t, Config{EnableExplain: true})
	sharded := testServerCfg(t, Config{EnableExplain: true, Shards: 4})
	for _, q := range []string{
		"x=50&y=50&K=80&k=8&algo=iadu",
		"x=50&y=50&K=80&k=8&algo=abp&spatial=radial",
	} {
		a := get(t, unsharded, "/v1/explain?"+q)
		b := get(t, sharded, "/v1/explain?"+q)
		if a.Code != http.StatusOK || b.Code != a.Code {
			t.Fatalf("%q: status unsharded=%d sharded=%d", q, a.Code, b.Code)
		}
		sa := stripVolatile(t, a.Body.Bytes())
		sb := stripVolatile(t, b.Body.Bytes())
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("explain %q diverges:\nunsharded: %v\nsharded:   %v", q, sa, sb)
		}
	}
}
