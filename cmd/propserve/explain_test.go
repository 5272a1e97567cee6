package main

// Tests for the algorithm-introspection surface: GET /v1/explain, the
// slow-query log, the engine hit ratio in /v1/stats, the access-log cache
// disposition, and request-ID propagation through batch elements.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestExplainDisabledByDefault(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/v1/explain?K=60&k=5")
	if rec.Code != http.StatusForbidden {
		t.Fatalf("status = %d, want 403 (explain is opt-in)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "enable-explain") {
		t.Errorf("error body should name the flag: %s", rec.Body.String())
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := testServerCfg(t, Config{EnableExplain: true})
	const q = "?x=50&y=50&K=80&k=8&algo=iadu&spatial=squared"

	rec := get(t, s, "/v1/explain"+q)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		engine.QueryResponse
		Explain struct {
			Algorithm string `json:"algorithm"`
			Rounds    []struct {
				Round        int      `json:"round"`
				Chosen       []int    `json:"chosen"`
				ChosenIDs    []string `json:"chosen_ids"`
				Gain         float64  `json:"gain"`
				RunnerUpGain float64  `json:"runner_up_gain"`
			} `json:"rounds"`
			Pruning *struct {
				Engine         string  `json:"engine"`
				CandidatePairs int64   `json:"candidate_pairs"`
				ComparedPairs  int64   `json:"compared_pairs"`
				PrunedPairs    int64   `json:"pruned_pairs"`
				PrunedRatio    float64 `json:"pruned_ratio"`
			} `json:"pruning"`
			Grid *struct {
				Kind         string  `json:"kind"`
				SampledPairs int     `json:"sampled_pairs"`
				MeanAbsError float64 `json:"mean_abs_error"`
			} `json:"grid"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v (%s)", err, rec.Body.String())
	}
	if resp.Explain.Algorithm != "iadu" {
		t.Errorf("explain.algorithm = %q, want iadu", resp.Explain.Algorithm)
	}
	if len(resp.Explain.Rounds) != 8 {
		t.Errorf("explain.rounds has %d entries, want k=8", len(resp.Explain.Rounds))
	}
	for i, r := range resp.Explain.Rounds {
		if r.Round != i+1 || len(r.Chosen) != 1 || len(r.ChosenIDs) != 1 {
			t.Errorf("round %d malformed: %+v", i, r)
		}
	}
	p := resp.Explain.Pruning
	if p == nil || p.Engine != "msJh" || p.CandidatePairs != 80*79/2 {
		t.Fatalf("explain.pruning = %+v, want msJh over 3160 candidate pairs", p)
	}
	if p.ComparedPairs+p.PrunedPairs != p.CandidatePairs {
		t.Errorf("compared %d + pruned %d != candidates %d", p.ComparedPairs, p.PrunedPairs, p.CandidatePairs)
	}
	g := resp.Explain.Grid
	if g == nil || g.Kind != "squared" || g.SampledPairs == 0 {
		t.Fatalf("explain.grid = %+v, want squared stats with sampled pairs", g)
	}

	// The cache diagnostic reports the bypass, and the explain run set the
	// introspection gauges on /metrics.
	if c, _ := resp.Diagnostics["cache"].(string); c != "bypass" {
		t.Errorf("diagnostics cache = %q, want bypass", c)
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"propserve_msjh_pruned_ratio",
		"propserve_grid_err_sampled",
		"propserve_engine_explains_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestExplainBypassesServerCache: a warm /v1/search key still yields a
// full trace on /v1/explain (the cached score set and memoised selection
// are not consulted).
func TestExplainBypassesServerCache(t *testing.T) {
	s := testServerCfg(t, Config{EnableExplain: true})
	const q = "?K=60&k=5&algo=iadu"
	if rec := get(t, s, "/v1/search"+q); rec.Code != http.StatusOK {
		t.Fatalf("warm-up search status = %d", rec.Code)
	}
	rec := get(t, s, "/v1/explain"+q)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Explain struct {
			Rounds []json.RawMessage `json:"rounds"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Explain.Rounds) != 5 {
		t.Errorf("warm-key explain recorded %d rounds, want 5", len(resp.Explain.Rounds))
	}
}

// TestExplainRoundsPerAlgorithm: every greedy records its rounds, the
// diversified baselines too, since they run on the same bodies — one per
// place for IAdU, one per pair (and one for an odd k's last place) for
// ABP.
func TestExplainRoundsPerAlgorithm(t *testing.T) {
	s := testServerCfg(t, Config{EnableExplain: true})
	for algo, want := range map[string]int{"abp": 3, "abp-div": 3, "iadu": 5, "iadu-div": 5} {
		rec := get(t, s, "/v1/explain?K=60&k=5&algo="+algo)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", algo, rec.Code, rec.Body.String())
		}
		var resp struct {
			Explain struct {
				Algorithm string            `json:"algorithm"`
				Rounds    []json.RawMessage `json:"rounds"`
			} `json:"explain"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Explain.Algorithm != algo || len(resp.Explain.Rounds) != want {
			t.Errorf("%s: explain recorded %d rounds as %q, want %d (k=5)",
				algo, len(resp.Explain.Rounds), resp.Explain.Algorithm, want)
		}
	}
}

// syncBuffer lets handler goroutines and test assertions share a buffer.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestSlowQueryLog(t *testing.T) {
	var slow syncBuffer
	// A 1ns threshold makes every query slow.
	s := testServerCfg(t, Config{SlowQuery: time.Nanosecond, SlowQueryLog: &slow})

	rec := get(t, s, "/v1/search?x=50&y=50&K=60&k=5&algo=abp")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	line := strings.TrimSpace(slow.String())
	if line == "" {
		t.Fatal("no slow-query line emitted")
	}
	var e struct {
		RequestID   string         `json:"request_id"`
		Endpoint    string         `json:"endpoint"`
		DurationMS  float64        `json:"duration_ms"`
		ThresholdMS float64        `json:"threshold_ms"`
		Query       map[string]any `json:"query"`
		StageMS     map[string]any `json:"stage_ms"`
		Cache       string         `json:"cache"`
	}
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("slow-query line not JSON: %v (%s)", err, line)
	}
	if e.Endpoint != "/v1/search" || e.DurationMS <= 0 {
		t.Errorf("entry = %+v", e)
	}
	if e.RequestID != rec.Header().Get("X-Request-ID") {
		t.Errorf("slow-query request_id = %q, response header = %q", e.RequestID, rec.Header().Get("X-Request-ID"))
	}
	if e.Query["algo"] != "abp" || e.Query["K"] != float64(60) {
		t.Errorf("query context = %v", e.Query)
	}
	if _, ok := e.StageMS["step2_select"]; !ok {
		t.Errorf("stage breakdown missing step2_select: %v", e.StageMS)
	}
	if e.Cache != "miss" {
		t.Errorf("cache = %q, want miss", e.Cache)
	}
	if m := get(t, s, "/metrics").Body.String(); !strings.Contains(m, "propserve_slow_queries_total 1") {
		t.Error("/metrics missing propserve_slow_queries_total 1")
	}
}

// TestSlowQueryLogThreshold: queries under the threshold emit nothing.
func TestSlowQueryLogThreshold(t *testing.T) {
	var slow syncBuffer
	s := testServerCfg(t, Config{SlowQuery: time.Hour, SlowQueryLog: &slow})
	if rec := get(t, s, "/v1/search?K=60&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := slow.String(); got != "" {
		t.Errorf("fast query emitted a slow-query line: %s", got)
	}
}

// TestSlowQueryLogExplain: slow explains carry the introspection report in
// the slow-query line.
func TestSlowQueryLogExplain(t *testing.T) {
	var slow syncBuffer
	s := testServerCfg(t, Config{EnableExplain: true, SlowQuery: time.Nanosecond, SlowQueryLog: &slow})
	if rec := get(t, s, "/v1/explain?K=60&k=5&algo=iadu"); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	line := strings.TrimSpace(slow.String())
	var e struct {
		Endpoint string `json:"endpoint"`
		Explain  *struct {
			Rounds []json.RawMessage `json:"rounds"`
		} `json:"explain"`
	}
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("slow-query line not JSON: %v (%s)", err, line)
	}
	if e.Endpoint != "/v1/explain" || e.Explain == nil || len(e.Explain.Rounds) != 5 {
		t.Errorf("explain slow-query entry = %s", line)
	}
}

func TestStatsHitRatioEndpoint(t *testing.T) {
	s := testServer(t)
	hitRatio := func() (float64, bool) {
		var body struct {
			Engine struct {
				Cache map[string]any `json:"cache"`
			} `json:"engine"`
		}
		if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		v, ok := body.Engine.Cache["hit_ratio"].(float64)
		return v, ok
	}
	if r, ok := hitRatio(); !ok || r != 0 {
		t.Errorf("hit_ratio before any query = %v (present %v), want 0", r, ok)
	}
	for i := 0; i < 2; i++ {
		if rec := get(t, s, "/v1/search?K=60&k=5"); rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	// 1 miss + 1 hit over 2 lookups.
	if r, ok := hitRatio(); !ok || r != 0.5 {
		t.Errorf("hit_ratio after miss+hit = %v (present %v), want 0.5", r, ok)
	}
}

// TestAccessLogCacheDisposition: the access-log line for a search carries
// the engine cache disposition, miss then hit.
func TestAccessLogCacheDisposition(t *testing.T) {
	var logBuf syncBuffer
	s := testServerCfg(t, Config{AccessLog: &logBuf})
	for i := 0; i < 2; i++ {
		if rec := get(t, s, "/v1/search?K=60&k=5"); rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2: %q", len(lines), lines)
	}
	want := []string{"miss", "hit"}
	for i, line := range lines {
		var e struct {
			Path  string `json:"path"`
			Cache string `json:"cache"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access-log line not JSON: %v (%s)", err, line)
		}
		if e.Cache != want[i] {
			t.Errorf("line %d cache = %q, want %q", i, e.Cache, want[i])
		}
	}
}

// TestAccessLogCacheAbsentOffPath: requests that never consult the cache
// (here /healthz) omit the field.
func TestAccessLogCacheAbsentOffPath(t *testing.T) {
	var logBuf syncBuffer
	s := testServerCfg(t, Config{AccessLog: &logBuf})
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if line := logBuf.String(); strings.Contains(line, `"cache"`) {
		t.Errorf("healthz access-log line carries a cache field: %s", line)
	}
}

// TestBatchRequestIDAndSpanIsolation: every batch element's response
// carries the parent request's ID, and per-element traces stay isolated —
// a cache-hit element must not inherit the retrieve/step1 spans of the
// element that built the score set.
func TestBatchRequestIDAndSpanIsolation(t *testing.T) {
	// One worker serialises the elements, so the duplicate of the first
	// query is deterministically a cache hit.
	s := testServerCfg(t, Config{BatchWorkers: 1})
	q := map[string]any{"K": 60, "k": 5}
	rec := postJSON(t, s, "/v1/batch", map[string]any{
		"queries": []any{q, q, map[string]any{"K": 70, "k": 5}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	parentID := rec.Header().Get("X-Request-ID")
	if parentID == "" {
		t.Fatal("batch response has no X-Request-ID header")
	}
	var resp struct {
		RequestID string `json:"request_id"`
		Results   []struct {
			Status   int                   `json:"status"`
			Response *engine.QueryResponse `json:"response"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != parentID {
		t.Errorf("envelope request_id = %q, header = %q", resp.RequestID, parentID)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	stages := make([]map[string]any, len(resp.Results))
	for i, item := range resp.Results {
		if item.Status != http.StatusOK || item.Response == nil {
			t.Fatalf("element %d: status %d, response %v", i, item.Status, item.Response)
		}
		if item.Response.RequestID != parentID {
			t.Errorf("element %d request_id = %q, want parent %q", i, item.Response.RequestID, parentID)
		}
		st, _ := item.Response.Diagnostics["stage_ms"].(map[string]any)
		if st == nil {
			t.Fatalf("element %d has no stage breakdown: %v", i, item.Response.Diagnostics)
		}
		stages[i] = st
	}
	// Element 0 built the score set: its trace has the build stages.
	for _, stage := range []string{"retrieve", "step1_pcs", "step2_select"} {
		if _, ok := stages[0][stage]; !ok {
			t.Errorf("element 0 trace missing %q: %v", stage, stages[0])
		}
	}
	// Element 1 hit the cache: no build stages may bleed into its trace
	// from element 0 or element 2.
	if c, _ := resp.Results[1].Response.Diagnostics["cache"].(string); c != "hit" {
		t.Fatalf("element 1 cache = %q, want hit (single worker, duplicate query)", c)
	}
	for _, stage := range []string{"retrieve", "step1_pcs", "step1_pss"} {
		if _, ok := stages[1][stage]; ok {
			t.Errorf("element 1 (cache hit) trace carries %q — span bleed across elements: %v", stage, stages[1])
		}
	}
	// Element 2 is a distinct query: it built its own score set.
	if _, ok := stages[2]["retrieve"]; !ok {
		t.Errorf("element 2 trace missing retrieve: %v", stages[2])
	}
}
