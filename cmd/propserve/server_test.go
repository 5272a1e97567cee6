package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
)

func testServer(t *testing.T) *Server {
	return testServerCfg(t, Config{})
}

func testServerCfg(t testing.TB, cfg Config) *Server {
	t.Helper()
	dcfg := dataset.DBpediaLike(5)
	dcfg.Places = 500
	d, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf // keep panic stacks out of stderr
	}
	return NewServer(d, cfg)
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestStats(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "dbpedia-like") {
		t.Errorf("body = %s", rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	eng, ok := body["engine"].(map[string]any)
	if !ok {
		t.Fatalf("/v1/stats missing engine section: %v", body)
	}
	if _, ok := eng["cache"].(map[string]any); !ok {
		t.Errorf("engine stats missing cache section: %v", eng)
	}
}

// TestCacheBytesExposed: the resident score-set bytes appear as
// engine.cache.bytes in /v1/stats and as the propserve_engine_cache_bytes
// gauge, with the same value.
func TestCacheBytesExposed(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/v1/search?K=60&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("search status = %d", rec.Code)
	}
	var body struct {
		Engine struct {
			Cache struct {
				Bytes int `json:"bytes"`
			} `json:"cache"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Engine.Cache.Bytes <= 0 {
		t.Fatalf("engine.cache.bytes = %d after a miss, want > 0", body.Engine.Cache.Bytes)
	}
	if got, want := metricsSeries(t, s)["propserve_engine_cache_bytes"], strconv.Itoa(body.Engine.Cache.Bytes); got != want {
		t.Errorf("propserve_engine_cache_bytes = %q, /v1/stats says %s", got, want)
	}
}

func TestSearchDefaults(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/v1/search?K=80&k=8")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp engine.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 8 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.HPF <= 0 {
		t.Errorf("HPF = %g", resp.HPF)
	}
	for _, key := range []string{"diversity", "inference_match", "mean_relevance"} {
		if _, ok := resp.Diagnostics[key]; !ok {
			t.Errorf("diagnostics missing %q: %v", key, resp.Diagnostics)
		}
	}
	for i, r := range resp.Results {
		if r.Rank != i+1 || r.ID == "" || len(r.Context) == 0 {
			t.Errorf("result %d malformed: %+v", i, r)
		}
	}
}

func TestSearchAllAlgorithms(t *testing.T) {
	s := testServer(t)
	for _, algo := range []string{"abp", "iadu", "topk", "abp-div", "iadu-div"} {
		rec := get(t, s, "/v1/search?K=60&k=5&algo="+algo)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", algo, rec.Code, rec.Body.String())
		}
	}
}

func TestSearchWithKeywordsAndLocation(t *testing.T) {
	s := testServer(t)
	// Use a real vocabulary word so the keyword resolves.
	word := s.def.Eng.Corpus().Places[0].Context.Words(s.def.Eng.Corpus().Dict)[0]
	rec := get(t, s, "/v1/search?x=50&y=50&K=60&k=5&keywords="+word)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp engine.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Query.Keywords) != 1 || resp.Query.Keywords[0] != word {
		t.Errorf("keywords echoed wrong: %v", resp.Query.Keywords)
	}
}

func TestSearchErrors(t *testing.T) {
	s := testServer(t)
	cases := []string{
		"/v1/search?x=notanumber",
		"/v1/search?K=abc",
		"/v1/search?lambda=2",
		"/v1/search?lambda=-0.1",
		"/v1/search?algo=sorcery",   // unknown algorithm
		"/v1/search?algo=iadu-heap", // ablation variants, no longer served
		"/v1/search?algo=abp-eager",
		"/v1/search?algo=abp-rescan",
		"/v1/search?spatial=wormhole", // unknown spatial method
		"/v1/search?K=5&k=10",         // k ≥ K
		"/v1/search?K=10&k=10",
		"/v1/search?k=0",
		"/v1/search?k=-3",
		"/v1/search?K=0",
		"/v1/search?K=-1",
		"/v1/search?K=60&k=5&gamma=7",
		"/v1/search?K=60&k=5&gamma=NaN",
		"/v1/search?x=NaN",  // strconv.ParseFloat accepts NaN; the server must not
		"/v1/search?y=+Inf", // likewise for infinities
		"/v1/search?x=-Inf",
	}
	for _, path := range cases {
		rec := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", path, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), "error") {
			t.Errorf("%s: no error field: %s", path, rec.Body.String())
		}
	}
}

// TestSearchSpatialMethods exercises the spatial method selector,
// including the exact (quadratic baseline) path.
func TestSearchSpatialMethods(t *testing.T) {
	s := testServer(t)
	for _, spatial := range []string{"exact", "squared", "radial"} {
		rec := get(t, s, "/v1/search?K=60&k=5&spatial="+spatial)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", spatial, rec.Code, rec.Body.String())
		}
		var resp engine.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Diagnostics["spatial_method"] == "" {
			t.Errorf("%s: diagnostics missing spatial_method: %v", spatial, resp.Diagnostics)
		}
	}
}

// TestSearchClampsK verifies the graceful-degradation ceiling on every
// query endpoint: a request beyond -max-K is clamped, and the clamp is
// reported in diagnostics, counted in propserve_degraded_total and
// retained as a degraded trace — on a batch element and an explain
// exactly as on a search.
func TestSearchClampsK(t *testing.T) {
	s := testServerCfg(t, Config{MaxK: 50, EnableExplain: true})
	clamps := func() float64 {
		v, _ := strconv.ParseFloat(metricsSeries(t, s)[`propserve_degraded_total{reason="k_clamp"}`], 64)
		return v
	}
	decode := func(rec *httptest.ResponseRecorder) (resp engine.QueryResponse) {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, c := range []struct {
		endpoint string
		query    func() engine.QueryResponse // runs the clamped query
	}{
		{"/v1/search", func() engine.QueryResponse { return decode(get(t, s, "/v1/search?K=400&k=5")) }},
		{"/v1/batch", func() engine.QueryResponse {
			rec := postJSON(t, s, "/v1/batch", map[string]any{"queries": []any{map[string]any{"K": 400, "k": 5}}})
			var env batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || len(env.Results) != 1 || env.Results[0].Status != http.StatusOK {
				t.Fatalf("batch: %v: %s", err, rec.Body.String())
			}
			return *env.Results[0].Response
		}},
		{"/v1/explain", func() engine.QueryResponse { return decode(get(t, s, "/v1/explain?K=400&k=5")) }},
	} {
		before := clamps()
		resp := c.query()
		if resp.Query.K != 50 {
			t.Errorf("%s: K = %d, want clamped 50", c.endpoint, resp.Query.K)
		}
		deg, ok := resp.Diagnostics["degraded"].(map[string]any)
		if !ok {
			t.Errorf("%s: diagnostics missing degraded: %v", c.endpoint, resp.Diagnostics)
		} else if deg["K_clamped_from"] != float64(400) {
			t.Errorf("%s: K_clamped_from = %v, want 400", c.endpoint, deg["K_clamped_from"])
		}
		if d := clamps() - before; d != 1 {
			t.Errorf("%s: k_clamp counter moved by %v, want 1", c.endpoint, d)
		}
		retained := 0
		for _, row := range getJSON(t, s, "/v1/traces?reason=degraded")["traces"].([]any) {
			if row.(map[string]any)["endpoint"] == c.endpoint {
				retained++
			}
		}
		if retained != 1 {
			t.Errorf("%s: %d degraded traces retained, want 1", c.endpoint, retained)
		}
	}

	// k larger than the ceiling cannot be satisfied at all: a client error.
	if rec := get(t, s, "/v1/search?K=400&k=60"); rec.Code != http.StatusBadRequest {
		t.Errorf("k beyond ceiling: status = %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
}

// TestDowngradeBudgetSizeAware verifies the size-aware downshift: with
// the budget threshold permanently exceeded, a large exact query is
// downshifted to the squared grid while a small one — below the grid's
// measured crossover, where the approximation is slower than exact —
// keeps its exact method, and both decisions appear in diagnostics.
func TestDowngradeBudgetSizeAware(t *testing.T) {
	// DegradeBudget ≥ QueryTimeout: every request observes a remaining
	// budget below the threshold, so the downshift decision always runs.
	s := testServerCfg(t, Config{QueryTimeout: 5 * time.Second, DegradeBudget: 10 * time.Second})

	rec := get(t, s, "/v1/search?K=200&k=5&spatial=exact")
	if rec.Code != http.StatusOK {
		t.Fatalf("large: status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp engine.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if m := resp.Diagnostics["spatial_method"]; m != "squared-grid" {
		t.Errorf("large: spatial_method = %v, want squared-grid", m)
	}
	deg, ok := resp.Diagnostics["degraded"].(map[string]any)
	if !ok {
		t.Fatalf("large: diagnostics missing degraded: %v", resp.Diagnostics)
	}
	if sp, _ := deg["spatial"].(string); !strings.Contains(sp, "exact→squared-grid") {
		t.Errorf("large: degraded.spatial = %v, want applied downshift", deg["spatial"])
	}
	if deg["remaining_budget_ms"] == nil {
		t.Errorf("large: degraded missing remaining_budget_ms: %v", deg)
	}

	rec = get(t, s, "/v1/search?K=60&k=5&spatial=exact")
	if rec.Code != http.StatusOK {
		t.Fatalf("small: status = %d: %s", rec.Code, rec.Body.String())
	}
	resp = engine.QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if m := resp.Diagnostics["spatial_method"]; m != "exact" {
		t.Errorf("small: spatial_method = %v, want exact (downshift skipped)", m)
	}
	deg, ok = resp.Diagnostics["degraded"].(map[string]any)
	if !ok {
		t.Fatalf("small: diagnostics missing degraded: %v", resp.Diagnostics)
	}
	if sp, _ := deg["spatial"].(string); !strings.Contains(sp, "downshift skipped") {
		t.Errorf("small: degraded.spatial = %v, want skipped decision", deg["spatial"])
	}

	// A batch element under the same starved budget downshifts like the
	// same search.
	rec = postJSON(t, s, "/v1/batch", map[string]any{
		"queries": []any{map[string]any{"K": 200, "k": 5, "spatial": "exact"}},
	})
	var env batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || len(env.Results) != 1 || env.Results[0].Status != http.StatusOK {
		t.Fatalf("batch: %v: %s", err, rec.Body.String())
	}
	el := env.Results[0].Response
	if m := el.Diagnostics["spatial_method"]; m != "squared-grid" {
		t.Errorf("batch: spatial_method = %v, want squared-grid", m)
	}
	deg, _ = el.Diagnostics["degraded"].(map[string]any)
	if sp, _ := deg["spatial"].(string); !strings.Contains(sp, "exact→squared-grid") || deg["remaining_budget_ms"] == nil {
		t.Errorf("batch: degraded = %v, want applied downshift with remaining_budget_ms", deg)
	}
}

func TestNotFoundAndMethod(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/search", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Errorf("POST /search status = %d", rec.Code)
	}
}

func TestConcurrentSearches(t *testing.T) {
	// Identical concurrent queries coalesce in the engine: the waiters
	// park (holding admission slots) while one leader computes, so a
	// simultaneous burst genuinely overlaps at the gate. Give the burst
	// explicit headroom instead of relying on scheduling to spread it.
	s := testServerCfg(t, Config{MaxInFlight: 4, MaxQueue: 8})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			req := httptest.NewRequest(http.MethodGet, "/v1/search?K=60&k=5", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				done <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
				return
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
