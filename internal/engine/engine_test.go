package engine

import (
	"context"
	"encoding/json"
	"errors"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/textctx"
)

var (
	testDataOnce sync.Once
	testDataVal  *dataset.Dataset
)

// testData generates one 500-place corpus shared by the whole package
// (read-only, exactly as an Engine requires).
func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	testDataOnce.Do(func() {
		cfg := dataset.DBpediaLike(5)
		cfg.Places = 500
		d, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		testDataVal = d
	})
	return testDataVal
}

// uncached recomputes req's result through the raw pipeline, with no
// tables, no cache and no engine, as the ground truth the cached paths
// must reproduce exactly.
func uncached(t *testing.T, d *dataset.Dataset, req *QueryRequest) (core.Selection, core.Breakdown) {
	t.Helper()
	if _, err := req.Normalize(); err != nil { // idempotent; resolves spatial + keywords
		t.Fatal(err)
	}
	loc := geo.Pt(req.X, req.Y)
	places, err := d.Retrieve(dataset.Query{Loc: loc, Keywords: req.KeywordSet()}, req.K)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := core.ComputeScores(loc, places, core.ScoreOptions{
		Gamma: req.Gamma, Spatial: req.SpatialMethod(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.Select(core.Algorithm(req.Algo), ss, core.Params{
		K: req.SmallK, Lambda: req.Lambda, Gamma: req.Gamma,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sel, ss.Evaluate(sel.Indices, req.Lambda)
}

func sameIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueryCacheStatuses(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5

	res1, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cache != CacheMiss {
		t.Errorf("first query cache = %q, want miss", res1.Cache)
	}
	req2 := e.NewRequest()
	req2.K, req2.SmallK = 60, 5
	res2, err := e.Query(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cache != CacheHit {
		t.Errorf("second query cache = %q, want hit", res2.Cache)
	}
	if res1.SS != res2.SS {
		t.Error("hit did not return the shared score set")
	}
	if !sameIndices(res1.Sel.Indices, res2.Sel.Indices) || res1.Breakdown.Total != res2.Breakdown.Total {
		t.Error("hit result differs from miss result")
	}

	st := e.Stats()
	if st.Builds != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want builds/misses/hits 1/1/1", st)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestQueryMatchesUncachedPath: for every spatial method and a spread of
// algorithms, the engine's answers (miss path and hit path) must be
// identical to the raw per-request pipeline — the grid tables only
// precompute the very values the raw path computes on the fly
// (Theorem 7.1), so even the floats must match exactly.
func TestQueryMatchesUncachedPath(t *testing.T) {
	d := testData(t)
	e := New(d, Options{})
	for _, spatial := range []string{"squared", "radial", "exact"} {
		for _, algo := range []string{"abp", "iadu", "topk"} {
			req := e.NewRequest()
			req.K, req.SmallK = 60, 5
			req.Spatial, req.Algo = spatial, algo
			req.X, req.Y = 42, 57

			res, err := e.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("%s/%s: %v", spatial, algo, err)
			}
			wantSel, wantB := uncached(t, d, req)
			if !sameIndices(res.Sel.Indices, wantSel.Indices) {
				t.Errorf("%s/%s: indices %v != uncached %v", spatial, algo, res.Sel.Indices, wantSel.Indices)
			}
			if res.Breakdown.Total != wantB.Total {
				t.Errorf("%s/%s: HPF %v != uncached %v", spatial, algo, res.Breakdown.Total, wantB.Total)
			}

			// And the hit path returns the very same answer.
			req2 := e.NewRequest()
			req2.K, req2.SmallK = 60, 5
			req2.Spatial, req2.Algo = spatial, algo
			req2.X, req2.Y = 42, 57
			res2, err := e.Query(context.Background(), req2)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Cache != CacheHit {
				t.Errorf("%s/%s: repeat cache = %q, want hit", spatial, algo, res2.Cache)
			}
			if !sameIndices(res2.Sel.Indices, wantSel.Indices) || res2.Breakdown.Total != wantB.Total {
				t.Errorf("%s/%s: hit result differs from uncached", spatial, algo)
			}
		}
	}
}

// TestScoreSetSharedAcrossStep2Params: algorithm, k and λ are not part of
// the cache key, so varying them reuses the same score set.
func TestScoreSetSharedAcrossStep2Params(t *testing.T) {
	e := New(testData(t), Options{})
	var ss *core.ScoreSet
	for i, q := range []struct {
		algo   string
		k      int
		lambda float64
	}{{"abp", 5, 0.5}, {"iadu", 5, 0.5}, {"abp", 8, 0.5}, {"abp", 5, 0.9}} {
		req := e.NewRequest()
		req.K, req.SmallK = 60, q.k
		req.Algo, req.Lambda = q.algo, q.lambda
		res, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ss = res.SS
			continue
		}
		if res.SS != ss {
			t.Errorf("case %d: got a different score set; want the shared one", i)
		}
		if res.Cache != CacheHit {
			t.Errorf("case %d: cache = %q, want hit", i, res.Cache)
		}
	}
	if st := e.Stats(); st.Builds != 1 {
		t.Errorf("builds = %d, want 1 across all Step-2 variations", st.Builds)
	}
}

func TestSelectionMemo(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5
	if _, err := e.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Grab the entry and check the memo is hit on repetition.
	key, _ := req.Normalize()
	ent, ok := e.cache.get(key.String())
	if !ok {
		t.Fatal("entry not cached")
	}
	if len(ent.sels) != 1 {
		t.Fatalf("memo size = %d, want 1", len(ent.sels))
	}
	req2 := e.NewRequest()
	req2.K, req2.SmallK = 60, 5
	req2.Algo = "iadu"
	if _, err := e.Query(context.Background(), req2); err != nil {
		t.Fatal(err)
	}
	if len(ent.sels) != 2 {
		t.Fatalf("memo size = %d, want 2 after a second algorithm", len(ent.sels))
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(testData(t), Options{CacheEntries: 2})
	locs := []float64{10, 30, 50}
	for _, x := range locs {
		req := e.NewRequest()
		req.K, req.SmallK = 60, 5
		req.X = x
		if _, err := e.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("evictions = %d entries = %d, want 1 and 2", st.Evictions, st.Entries)
	}
	// The first key was evicted: querying it again rebuilds.
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5
	req.X = locs[0]
	res, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheMiss {
		t.Errorf("evicted key cache = %q, want miss", res.Cache)
	}
	if got := e.Stats().Builds; got != 4 {
		t.Errorf("builds = %d, want 4", got)
	}
}

func TestNormalizeValidation(t *testing.T) {
	e := New(testData(t), Options{MaxK: 2000})
	cases := []func(*QueryRequest){
		func(r *QueryRequest) { r.K = 0 },
		func(r *QueryRequest) { r.K = -1 },
		func(r *QueryRequest) { r.SmallK = 0 },
		func(r *QueryRequest) { r.SmallK = r.K },
		func(r *QueryRequest) { r.SmallK = r.K + 5 },
		func(r *QueryRequest) { r.Lambda = 1.5 },
		func(r *QueryRequest) { r.Lambda = -0.1 },
		func(r *QueryRequest) { r.Gamma = 7 },
		func(r *QueryRequest) { r.Algo = "sorcery" },
		func(r *QueryRequest) { r.Spatial = "wormhole" },
	}
	for i, mutate := range cases {
		req := e.NewRequest()
		mutate(req)
		if _, err := req.Normalize(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d: err = %v, want ErrBadRequest", i, err)
		}
	}
}

func TestNormalizeClampsK(t *testing.T) {
	e := New(testData(t), Options{MaxK: 50})
	req := e.NewRequest()
	req.K, req.SmallK = 400, 5
	key, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if req.K != 50 || req.ClampedFrom() != 400 {
		t.Errorf("K = %d clampedFrom = %d, want 50 and 400", req.K, req.ClampedFrom())
	}
	// The clamped request shares its cache key with a native K=50 request.
	native := e.NewRequest()
	native.K, native.SmallK = 50, 5
	nkey, err := native.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if key.String() != nkey.String() {
		t.Errorf("clamped key %q != native key %q", key, nkey)
	}

	// k beyond the ceiling cannot be satisfied: a bad request.
	req2 := e.NewRequest()
	req2.K, req2.SmallK = 400, 60
	if _, err := req2.Normalize(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v, want ErrBadRequest", err)
	}
}

func TestKeywordResolution(t *testing.T) {
	d := testData(t)
	e := New(d, Options{})
	word := d.Places[0].Context.Words(d.Dict)[0]

	req := e.NewRequest()
	req.Keywords = []string{" " + word + " ", "", "no-such-word-xyzzy"}
	if _, err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if req.KeywordSet().Len() != 1 {
		t.Errorf("resolved %d keywords, want 1", req.KeywordSet().Len())
	}

	// Distinct keyword sets must map to distinct cache keys; resolved-
	// identical ones (unknown words dropped) must share a key.
	a := e.NewRequest()
	a.Keywords = []string{word}
	akey, _ := a.Normalize()
	b := e.NewRequest()
	b.Keywords = []string{word, "no-such-word-xyzzy"}
	bkey, _ := b.Normalize()
	c := e.NewRequest()
	ckey, _ := c.Normalize()
	if akey.String() != bkey.String() {
		t.Errorf("keys differ for resolved-identical keyword sets")
	}
	if akey.String() == ckey.String() {
		t.Errorf("keyword and no-keyword requests share a key")
	}
}

// TestUnpinnedRequestRejected: a request built as a literal rather than
// by NewRequest is pinned to no corpus epoch, so it has no dictionary to
// resolve its keywords against. Normalize must refuse it rather than
// retrieve without the keywords, and Query must never build for it.
func TestUnpinnedRequestRejected(t *testing.T) {
	d := testData(t)
	e := New(d, Options{})
	word := d.Places[0].Context.Words(d.Dict)[0]
	req := &QueryRequest{X: 50, Y: 50, K: 100, SmallK: 10, Lambda: 0.5, Gamma: 0.5, Keywords: []string{word}}
	if _, err := req.Normalize(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Normalize on an unpinned request: err = %v, want ErrBadRequest", err)
	}
	if _, err := e.Query(context.Background(), req); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Query on an unpinned request: err = %v, want ErrBadRequest", err)
	}
	if st := e.Stats(); st.Builds != 0 {
		t.Fatalf("unpinned request ran %d builds", st.Builds)
	}
}

func TestRequestFromValues(t *testing.T) {
	e := New(testData(t), Options{})
	q, _ := url.ParseQuery("x=10&y=20&K=60&k=5&lambda=0.25&gamma=0.75&algo=iadu&spatial=radial&keywords=a,b")
	req, err := e.RequestFromValues(q)
	if err != nil {
		t.Fatal(err)
	}
	if req.X != 10 || req.Y != 20 || req.K != 60 || req.SmallK != 5 ||
		req.Lambda != 0.25 || req.Gamma != 0.75 || req.Algo != "iadu" ||
		req.Spatial != "radial" || len(req.Keywords) != 2 {
		t.Errorf("parsed request = %+v", req)
	}

	// Defaults survive absent parameters.
	req2, err := e.RequestFromValues(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	center := e.Corpus().Config.Extent / 2
	if req2.X != center || req2.K != 100 || req2.SmallK != 10 || req2.Algo != "abp" {
		t.Errorf("defaults = %+v", req2)
	}

	// Malformed and non-finite values are rejected.
	for _, raw := range []string{"x=notanumber", "K=abc", "x=NaN", "y=+Inf", "x=-Inf"} {
		q, _ := url.ParseQuery(raw)
		if _, err := e.RequestFromValues(q); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", raw, err)
		}
	}
}

// TestBatchElementDecoding mirrors how /v1/batch seeds each element with
// the corpus defaults before decoding: absent fields keep defaults.
func TestBatchElementDecoding(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	if err := json.Unmarshal([]byte(`{"K":60,"k":5,"algo":"iadu"}`), req); err != nil {
		t.Fatal(err)
	}
	center := e.Corpus().Config.Extent / 2
	if req.X != center || req.Y != center {
		t.Errorf("location = (%v, %v), want corpus centre", req.X, req.Y)
	}
	if req.K != 60 || req.SmallK != 5 || req.Algo != "iadu" || req.Lambda != 0.5 {
		t.Errorf("decoded request = %+v", req)
	}
	if _, err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
}

func TestTooFewPlacesIsBadRequest(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	req.K, req.SmallK = 20, 19
	// Retrieval may return up to K places; forcing k just below K with a
	// tiny K exercises the post-cache size check without tripping
	// Normalize. If retrieval returns a full K places this is simply a
	// valid query, so only assert on the error's type when it fires.
	if _, err := e.Query(context.Background(), req); err != nil && !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v, want nil or ErrBadRequest", err)
	}
}

func TestExactSolverTooLargeSurfacesTyped(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	req.K, req.SmallK = 100, 30
	req.Algo = "exact"
	_, err := e.Query(context.Background(), req)
	if !errors.Is(err, core.ErrTooLarge) {
		t.Errorf("err = %v, want core.ErrTooLarge", err)
	}
}

func TestCancelledContextSurfacesTyped(t *testing.T) {
	e := New(testData(t), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5
	_, err := e.Query(ctx, req)
	if !errors.Is(err, core.ErrCancelled) {
		t.Errorf("err = %v, want core.ErrCancelled", err)
	}
	// A failed build is never cached.
	if st := e.Stats(); st.Entries != 0 || st.BuildErrors != 1 {
		t.Errorf("stats after failed build = %+v", st)
	}
}

func TestGridTablesMemoised(t *testing.T) {
	e := New(testData(t), Options{})
	if t1, t2 := e.SquaredTable(), e.SquaredTable(); t1 != t2 {
		t.Error("squared table rebuilt")
	}
	if t1, t2 := e.RadialTable(), e.RadialTable(); t1 != t2 {
		t.Error("radial table rebuilt")
	}
	st := e.Stats()
	if st.SquaredTables != 1 {
		t.Errorf("squared tables = %d, want 1", st.SquaredTables)
	}
	if st.TableBytes == 0 {
		t.Error("table bytes = 0")
	}
	// Serving a radial query materialises that ring count's matrix.
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5
	req.Spatial = "radial"
	if _, err := e.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().RadialResolutions; got != 1 {
		t.Errorf("radial resolutions = %d, want 1", got)
	}
}

func TestBuildResponseShape(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5
	res, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	resp := e.BuildResponse(req, res, nil)
	if resp.Query.K != 60 || resp.Query.SmallK != 5 || resp.Query.Algo != "abp" {
		t.Errorf("query echo = %+v", resp.Query)
	}
	if resp.HPF != res.Breakdown.Total {
		t.Errorf("hpf = %v, want %v", resp.HPF, res.Breakdown.Total)
	}
	if len(resp.Results) != 5 {
		t.Errorf("results = %d, want 5", len(resp.Results))
	}
	if resp.Diagnostics["cache"] != CacheMiss {
		t.Errorf("diagnostics cache = %v, want miss", resp.Diagnostics["cache"])
	}
	if _, ok := resp.Diagnostics["stage_ms"]; ok {
		t.Error("stage_ms present without a trace")
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"query"`, `"hpf"`, `"breakdown"`, `"diagnostics"`, `"results"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("marshalled response missing %s", field)
		}
	}
}

// TestFingerprintKeysAreCanonical guards the textctx helper the cache key
// leans on: order and duplicates must not matter.
func TestFingerprintKeysAreCanonical(t *testing.T) {
	a := textctx.NewSet(3, 1, 2)
	b := textctx.NewSet(2, 2, 1, 3)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("fingerprints differ: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if got := textctx.NewSet().Fingerprint(); got != "" {
		t.Errorf("empty set fingerprint = %q", got)
	}
}
