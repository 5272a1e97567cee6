package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sloBody fetches and decodes GET /v1/slo.
func sloBody(t *testing.T, s *Server) map[string]any {
	t.Helper()
	rec := get(t, s, "/v1/slo")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/slo status = %d: %s", rec.Code, rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body
}

// parseServerTiming splits a Server-Timing header into its
// name;dur=<ms> entries, returning the leading entry's name and every
// entry's milliseconds; a malformed entry fails the test.
func parseServerTiming(t *testing.T, h string) (lead string, ms map[string]float64) {
	t.Helper()
	ms = map[string]float64{}
	for i, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			t.Fatalf("Server-Timing %q: entry %q has no ;dur=", h, part)
		}
		v, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			t.Fatalf("Server-Timing %q: %s dur = %q (%v)", h, name, dur, err)
		}
		if i == 0 {
			lead = name
		}
		ms[name] = v
	}
	return lead, ms
}

func classStats(t *testing.T, body map[string]any, class, section string) map[string]any {
	t.Helper()
	classes, _ := body["classes"].(map[string]any)
	c, _ := classes[class].(map[string]any)
	if c == nil {
		t.Fatalf("class %q missing from /v1/slo: %v", class, body)
	}
	sec, _ := c[section].(map[string]any)
	if sec == nil {
		t.Fatalf("class %q has no %q section: %v", class, section, c)
	}
	return sec
}

func TestSLOEndpointTracksSearchClasses(t *testing.T) {
	s := testServer(t)
	// First query computes (miss), the identical repeat is served from the
	// LRU (hit); a malformed request lands in the miss class as a 400 —
	// an OK outcome, not an availability failure.
	for i := 0; i < 2; i++ {
		if rec := get(t, s, "/v1/search?K=60&k=6"); rec.Code != http.StatusOK {
			t.Fatalf("search %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if rec := get(t, s, "/v1/search?K=banana"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad search status = %d", rec.Code)
	}

	body := sloBody(t, s)
	hit := classStats(t, body, "search_hit", "total")
	miss := classStats(t, body, "search_miss", "total")
	if hit["count"] != 1.0 {
		t.Errorf("search_hit count = %v, want 1", hit["count"])
	}
	if miss["count"] != 2.0 || miss["ok"] != 2.0 {
		t.Errorf("search_miss total = %v, want count 2 all ok", miss)
	}
	if burn, _ := miss["availability_burn"].(float64); burn != 0 {
		t.Errorf("400s must not burn availability budget: burn = %v", burn)
	}
	if p99, _ := miss["p99_ms"].(float64); p99 <= 0 {
		t.Errorf("search_miss p99_ms = %v, want > 0", p99)
	}

	// Objectives and the rolling windows ride along.
	classes := body["classes"].(map[string]any)
	obj := classes["search_hit"].(map[string]any)["objective"].(map[string]any)
	if obj["quantile"] != 0.99 || obj["threshold_ms"] != 10.0 {
		t.Errorf("search_hit objective = %v", obj)
	}
	wins := classes["search_hit"].(map[string]any)["windows"].(map[string]any)
	for _, w := range []string{"1m", "5m", "1h"} {
		ws, _ := wins[w].(map[string]any)
		if ws == nil || ws["count"] != 1.0 {
			t.Errorf("window %s = %v, want count 1", w, ws)
		}
	}
}

func TestSLOServerTimingHeader(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/v1/search?K=60&k=6")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	st := rec.Header().Get("Server-Timing")
	lead, entries := parseServerTiming(t, st)
	if lead != "app" {
		t.Fatalf("Server-Timing = %q, want leading app;dur=<ms>", st)
	}
	if ms := entries["app"]; ms <= 0 || ms > 10_000 {
		t.Errorf("Server-Timing app dur = %v, want (0, 10000]", ms)
	}
	// The per-stage breakdown rides behind the total: a computed search
	// passes retrieve, select and render.
	for _, stage := range []string{"retrieve", "select", "render"} {
		if _, ok := entries[stage]; !ok {
			t.Errorf("Server-Timing %q missing stage %s", st, stage)
		}
	}
}

func TestSLOBatchAndMutateClasses(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})
	req := postJSON(t, s, "/v1/batch", json.RawMessage(`{"queries":[{"K":60,"k":6},{"K":60,"k":6},{"K":-1}]}`))
	if req.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", req.Code, req.Body.String())
	}
	mut := postJSON(t, s, "/v1/corpus", json.RawMessage(`{"upserts":[{"id":"slo-test","x":0.5,"y":0.5,"context":["alpha"]}]}`))
	if mut.Code != http.StatusOK {
		t.Fatalf("corpus status = %d: %s", mut.Code, mut.Body.String())
	}

	body := sloBody(t, s)
	if b := classStats(t, body, "batch", "total"); b["count"] != 3.0 {
		t.Errorf("batch total = %v, want 3 elements", b)
	}
	m := classStats(t, body, "mutate", "total")
	if m["count"] != 1.0 || m["ok"] != 1.0 {
		t.Errorf("mutate total = %v", m)
	}
	if st := mut.Header().Get("Server-Timing"); !strings.HasPrefix(st, "app;dur=") {
		t.Errorf("mutation Server-Timing = %q", st)
	}

	// Every exit takes exactly one sample, refusals included; an explain
	// is untracked and takes none. A one-slot gate with a 1ms queue wait
	// sheds a search while the slot is held.
	s = testServerCfg(t, Config{EnableMutation: true, EnableExplain: true, MaxInFlight: 1, QueueWait: time.Millisecond})
	samples := func() map[string]float64 {
		out := map[string]float64{}
		body := sloBody(t, s)
		for class := range body["classes"].(map[string]any) {
			out[class], _ = classStats(t, body, class, "total")["count"].(float64)
		}
		return out
	}
	for _, c := range []struct {
		name, class string // class "" expects no sample at all
		status      int
		do          func() *httptest.ResponseRecorder
	}{
		{"400 batch element", "batch", http.StatusOK, func() *httptest.ResponseRecorder {
			return postJSON(t, s, "/v1/batch", json.RawMessage(`{"queries":[{"K":-1}]}`))
		}},
		{"explain", "", http.StatusOK, func() *httptest.ResponseRecorder {
			return get(t, s, "/v1/explain?K=60&k=6")
		}},
		{"shed search", "search_miss", http.StatusServiceUnavailable, func() *httptest.ResponseRecorder {
			release, err := s.def.Gate.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			return get(t, s, "/v1/search?K=60&k=6")
		}},
		{"recovering mutation", "mutate", http.StatusServiceUnavailable, func() *httptest.ResponseRecorder {
			s.def.BeginRecovery()
			return postJSON(t, s, "/v1/corpus", json.RawMessage(`{"upserts":[{"id":"slo-test","x":0.5,"y":0.5,"context":["alpha"]}]}`))
		}},
	} {
		before := samples()
		if rec := c.do(); rec.Code != c.status {
			t.Fatalf("%s: status = %d, want %d: %s", c.name, rec.Code, c.status, rec.Body.String())
		}
		after := samples()
		for class, n := range after {
			want := 0.0
			if class == c.class {
				want = 1
			}
			if d := n - before[class]; d != want {
				t.Errorf("%s: class %s took %v samples, want %v", c.name, class, d, want)
			}
		}
	}
}

func TestSLODisabled(t *testing.T) {
	s := testServerCfg(t, Config{DisableSLO: true})
	if rec := get(t, s, "/v1/search?K=60&k=6"); rec.Code != http.StatusOK {
		t.Fatalf("search status = %d", rec.Code)
	}
	if rec := get(t, s, "/v1/slo"); rec.Code != http.StatusForbidden {
		t.Errorf("/v1/slo status = %d, want 403", rec.Code)
	}
	if rec := get(t, s, "/metrics"); strings.Contains(rec.Body.String(), "propserve_slo_") {
		t.Error("disabled SLO still exposes propserve_slo_* metrics")
	}
}

func TestSLOMetricsExposition(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 3; i++ {
		get(t, s, "/v1/search?K=60&k=6")
	}
	out := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		`propserve_slo_latency_seconds{class="search_hit",window="1m",quantile="0.99"}`,
		`propserve_slo_burn_rate{class="search_miss",window="5m",kind="availability"}`,
		`propserve_slo_budget_remaining{class="batch",window="1h"}`,
		`propserve_slo_requests_total{class="search_hit",outcome="ok"} 2`,
		`propserve_slo_requests_total{class="search_miss",outcome="ok"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The request histogram now resolves microsecond hits.
	if !strings.Contains(out, `propserve_request_seconds_bucket{le="1e-06"}`) {
		t.Error("/metrics missing microsecond request buckets")
	}
}

func TestStatsServerSection(t *testing.T) {
	s := testServer(t)
	var body map[string]any
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	sec, _ := body["server"].(map[string]any)
	if sec == nil {
		t.Fatalf("no server section: %v", body)
	}
	if up, _ := sec["uptime_s"].(float64); up < 0 {
		t.Errorf("uptime_s = %v", sec["uptime_s"])
	}
	gv, _ := sec["go_version"].(string)
	if !strings.HasPrefix(gv, "go") {
		t.Errorf("go_version = %q", gv)
	}
	if _, ok := sec["start_time"].(string); !ok {
		t.Errorf("start_time missing: %v", sec)
	}
	if se, _ := sec["start_epoch"].(float64); se <= 0 {
		t.Errorf("start_epoch = %v", sec["start_epoch"])
	}
}
