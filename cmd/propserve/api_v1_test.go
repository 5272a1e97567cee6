package main

// Tests for the /v1 API surface added with the cross-query engine:
// versioned routes, deprecated aliases, batch queries, and the cache
// statuses surfaced in diagnostics, /v1/stats and /metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

func postJSON(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// stripVolatile removes the per-request fields (request ID, timings,
// cache status) from a decoded response so two payloads can be compared
// structurally.
func stripVolatile(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response not JSON: %v (%s)", err, body)
	}
	delete(m, "request_id")
	if diag, ok := m["diagnostics"].(map[string]any); ok {
		delete(diag, "stage_ms")
		delete(diag, "elapsed_ms")
		delete(diag, "cache")
	}
	return m
}

// TestLegacyRetiredByDefault pins the retirement contract: the pre-/v1
// aliases answer 410 Gone, still carrying the
// Deprecation marker and a successor-version Link so clients learn the
// replacement from the refusal itself.
func TestLegacyRetiredByDefault(t *testing.T) {
	s := testServer(t)
	for old, successor := range map[string]string{
		"/search?K=60&k=5": "/v1/search",
		"/stats":           "/v1/stats",
	} {
		rec := get(t, s, old)
		if rec.Code != http.StatusGone {
			t.Errorf("%s status = %d, want 410", old, rec.Code)
		}
		if rec.Header().Get("Deprecation") != "true" {
			t.Errorf("%s Deprecation = %q, want \"true\"", old, rec.Header().Get("Deprecation"))
		}
		if link := rec.Header().Get("Link"); !strings.Contains(link, successor) || !strings.Contains(link, "successor-version") {
			t.Errorf("%s Link = %q, want successor-version pointing at %s", old, link, successor)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s body not JSON: %v", old, err)
		}
		if !strings.Contains(body["error"], successor) {
			t.Errorf("%s error = %q, want a pointer to %s", old, body["error"], successor)
		}
	}
}

// TestSearchCacheDiagnostics drives the miss → hit → coalesced lifecycle
// through the HTTP surface: the first query reports a miss, the repeat a
// hit, and the engine counters surface in /v1/stats and /metrics.
func TestSearchCacheDiagnostics(t *testing.T) {
	s := testServer(t)
	const q = "/v1/search?K=60&k=5"

	cacheOf := func(rec *httptest.ResponseRecorder) string {
		t.Helper()
		var resp engine.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		c, _ := resp.Diagnostics["cache"].(string)
		return c
	}

	first := get(t, s, q)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", first.Code, first.Body.String())
	}
	if c := cacheOf(first); c != "miss" {
		t.Errorf("first query cache = %q, want miss", c)
	}
	second := get(t, s, q)
	if c := cacheOf(second); c != "hit" {
		t.Errorf("repeat query cache = %q, want hit", c)
	}
	// A Step-2 variation (different algorithm) still hits: the score set
	// is keyed by Step-1 parameters only.
	third := get(t, s, q+"&algo=iadu")
	if c := cacheOf(third); c != "hit" {
		t.Errorf("algo variation cache = %q, want hit", c)
	}

	var stats struct {
		Engine struct {
			Cache map[string]float64 `json:"cache"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.Cache["misses"] != 1 || stats.Engine.Cache["hits"] != 2 {
		t.Errorf("cache counters = %v, want misses 1 hits 2", stats.Engine.Cache)
	}

	series := metricsSeries(t, s)
	if series["propserve_engine_cache_misses_total"] != "1" {
		t.Errorf("engine_cache_misses_total = %q, want 1", series["propserve_engine_cache_misses_total"])
	}
	if series["propserve_engine_cache_hits_total"] != "2" {
		t.Errorf("engine_cache_hits_total = %q, want 2", series["propserve_engine_cache_hits_total"])
	}
	if _, ok := series["propserve_engine_coalesced_total"]; !ok {
		t.Error("missing propserve_engine_coalesced_total")
	}
}

func TestBatchMixedResults(t *testing.T) {
	s := testServer(t)
	word := s.def.Eng.Corpus().Places[0].Context.Words(s.def.Eng.Corpus().Dict)[0]
	body := map[string]any{
		"queries": []map[string]any{
			{"K": 60, "k": 5}, // defaults for the rest
			{"K": 60, "k": 5}, // identical: served from cache
			{"x": 50, "y": 50, "K": 80, "k": 8, "algo": "iadu"}, // distinct
			{"K": 60, "k": 5, "keywords": []string{word}},       // with a resolvable keyword
			{"K": 5, "k": 10},                    // invalid: k ≥ K
			{"K": 60, "k": 5, "algo": "sorcery"}, // invalid: unknown algorithm
		},
	}
	rec := postJSON(t, s, "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 6 || len(resp.Results) != 6 {
		t.Fatalf("count = %d results = %d, want 6", resp.Count, len(resp.Results))
	}
	for i, item := range resp.Results {
		if item.Index != i {
			t.Errorf("result %d carries index %d", i, item.Index)
		}
	}
	for _, i := range []int{0, 1, 2, 3} {
		item := resp.Results[i]
		if item.Status != http.StatusOK || item.Response == nil {
			t.Errorf("element %d: status %d error %q, want 200 with response", i, item.Status, item.Error)
			continue
		}
		if len(item.Response.Results) == 0 || item.Response.HPF <= 0 {
			t.Errorf("element %d: empty response %+v", i, item.Response)
		}
	}
	if resp.Results[3].Response != nil {
		if kws := resp.Results[3].Response.Query.Keywords; len(kws) != 1 || kws[0] != word {
			t.Errorf("element 3 keywords = %v, want [%s]", kws, word)
		}
	}
	for _, i := range []int{4, 5} {
		item := resp.Results[i]
		if item.Status != http.StatusBadRequest || item.Error == "" || item.Response != nil {
			t.Errorf("element %d: status %d error %q, want 400 with error only", i, item.Status, item.Error)
		}
	}

	// The batch shares the engine cache with single searches: elements 0
	// and 1 were identical, so at most one build ran for them.
	if st := s.def.Eng.Stats(); st.Hits+st.Coalesced == 0 {
		t.Errorf("identical batch elements did not share a score set: %+v", st)
	}

	series := metricsSeries(t, s)
	if series["propserve_batch_requests_total"] != "1" {
		t.Errorf("batch_requests_total = %q, want 1", series["propserve_batch_requests_total"])
	}
	if series["propserve_batch_queries_total"] != "6" {
		t.Errorf("batch_queries_total = %q, want 6", series["propserve_batch_queries_total"])
	}
}

// TestBatchElementMatchesSearch pins batch/single equivalence: the same
// query answered through /v1/batch and /v1/search is identical modulo
// volatile fields (batch elements carry no request_id of their own).
func TestBatchElementMatchesSearch(t *testing.T) {
	s := testServer(t)
	single := get(t, s, "/v1/search?x=42&y=57&K=60&k=5")
	if single.Code != http.StatusOK {
		t.Fatalf("single status = %d", single.Code)
	}
	rec := postJSON(t, s, "/v1/batch", map[string]any{
		"queries": []map[string]any{{"x": 42, "y": 57, "K": 60, "k": 5}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Status != http.StatusOK {
		t.Fatalf("batch results = %+v", resp.Results)
	}
	elem, err := json.Marshal(resp.Results[0].Response)
	if err != nil {
		t.Fatal(err)
	}
	a, b := stripVolatile(t, single.Body.Bytes()), stripVolatile(t, elem)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("payloads differ:\nsearch: %s\nbatch:  %s", ja, jb)
	}
}

func TestBatchErrors(t *testing.T) {
	s := testServerCfg(t, Config{MaxBatch: 3})

	// Malformed body, empty batch, and an over-limit batch are whole-
	// request client errors.
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", rec.Code)
	}
	if rec := postJSON(t, s, "/v1/batch", map[string]any{"queries": []any{}}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", rec.Code)
	}
	four := make([]map[string]any, 4)
	for i := range four {
		four[i] = map[string]any{"K": 60, "k": 5}
	}
	rec2 := postJSON(t, s, "/v1/batch", map[string]any{"queries": four})
	if rec2.Code != http.StatusBadRequest || !strings.Contains(rec2.Body.String(), "exceeds") {
		t.Errorf("over-limit batch: status = %d body = %s, want 400", rec2.Code, rec2.Body.String())
	}

	// GET on the batch route is not allowed.
	if rec := get(t, s, "/v1/batch"); rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Errorf("GET /v1/batch: status = %d", rec.Code)
	}
}

// TestBatchConcurrentWithSearches interleaves batches and single
// searches over the same keys; everything must succeed and the engine
// must have built each distinct key exactly once.
func TestBatchConcurrentWithSearches(t *testing.T) {
	s := testServerCfg(t, Config{MaxInFlight: 4, MaxQueue: 32, BatchWorkers: 2})
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := get(t, s, "/v1/search?K=60&k=5")
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("search status %d: %s", rec.Code, rec.Body.String())
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postJSON(t, s, "/v1/batch", map[string]any{
				"queries": []map[string]any{
					{"K": 60, "k": 5},
					{"x": 30, "y": 30, "K": 60, "k": 5},
				},
			})
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("batch status %d: %s", rec.Code, rec.Body.String())
				return
			}
			var resp batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errs <- err
				return
			}
			for _, item := range resp.Results {
				if item.Status != http.StatusOK {
					errs <- fmt.Errorf("batch element %d: status %d: %s", item.Index, item.Status, item.Error)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.def.Eng.Stats(); st.Builds != 2 {
		t.Errorf("builds = %d, want 2 (one per distinct key)", st.Builds)
	}
}
