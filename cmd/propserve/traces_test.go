package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceConfig forces tail retention deterministically: a 1ns miss
// objective makes every computed search "slow", and a negative sample
// rate turns the probabilistic remainder off so retention is exactly
// the tail rules.
func traceConfig() Config {
	return Config{SLOMissP99: time.Nanosecond, TraceSample: -1}
}

func getJSON(t *testing.T, s *Server, path string) map[string]any {
	t.Helper()
	rec := get(t, s, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return body
}

// The acceptance path end to end: a forced-slow miss is retained, its ID
// surfaces as the miss class's p99 exemplar in /v1/slo, and fetching
// that ID yields the span tree, whose retrieve span has no shard_retrieve
// or merge child: every corpus retrieves from its own tree.
func TestTraceSlowSearchExemplarResolves(t *testing.T) {
	s := testServerCfg(t, traceConfig())

	rec := get(t, s, "/v1/search?K=60&k=6")
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
	}
	tp := rec.Header().Get("traceparent")
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		t.Fatalf("egress traceparent = %q, want 00-<32hex>-<16hex>-01", tp)
	}

	slo := getJSON(t, s, "/v1/slo")
	miss := slo["classes"].(map[string]any)["search_miss"].(map[string]any)
	total := miss["total"].(map[string]any)
	ex, _ := total["exemplar_trace"].(map[string]any)
	if ex == nil {
		t.Fatalf("search_miss total has no exemplar_trace: %v", total)
	}
	id, _ := ex["p99"].(string)
	if id == "" {
		t.Fatalf("no p99 exemplar in %v", ex)
	}
	if id != parts[1] {
		t.Errorf("exemplar %s != egress trace ID %s", id, parts[1])
	}

	tr := getJSON(t, s, "/v1/traces/"+id)
	if tr["trace_id"] != id || tr["corpus"] != "default" || tr["reason"] != "slow" {
		t.Fatalf("trace identity = %v/%v/%v", tr["trace_id"], tr["corpus"], tr["reason"])
	}
	if tr["status"] != 200.0 || tr["endpoint"] != "/v1/search" {
		t.Fatalf("trace outcome = %v %v", tr["status"], tr["endpoint"])
	}
	stages := map[string]bool{}
	for _, v := range tr["spans"].([]any) {
		stages[v.(map[string]any)["stage"].(string)] = true
	}
	for _, want := range []string{"parse", "admission_wait", "retrieve", "step2_select", "encode"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (has %v)", want, stages)
		}
	}
	for _, gone := range []string{"shard_retrieve", "merge"} {
		if stages[gone] {
			t.Errorf("trace has a %q span (has %v)", gone, stages)
		}
	}
}

// An ingress W3C traceparent is adopted (the retained trace carries the
// caller's trace ID and remembers its span as remote_parent) and the
// egress header answers under the same trace with this server's span.
func TestTraceParentIngressEgress(t *testing.T) {
	s := testServerCfg(t, traceConfig())
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"

	req := httptest.NewRequest(http.MethodGet, "/v1/search?K=60&k=6", nil)
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	parts := strings.Split(rec.Header().Get("traceparent"), "-")
	if len(parts) != 4 || parts[1] != callerTrace {
		t.Fatalf("egress traceparent = %q, want caller trace %s", rec.Header().Get("traceparent"), callerTrace)
	}
	if parts[2] == callerSpan {
		t.Error("egress span ID must be this server's, not the caller's")
	}

	tr := getJSON(t, s, "/v1/traces/"+callerTrace)
	if tr["remote_parent"] != callerSpan {
		t.Errorf("remote_parent = %v, want %s", tr["remote_parent"], callerSpan)
	}

	// A malformed header starts a fresh trace instead of failing.
	req = httptest.NewRequest(http.MethodGet, "/v1/search?K=60&k=6&x=12", nil)
	req.Header.Set("traceparent", "00-ZZZNOTHEX-bad-01")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search with bad traceparent = %d", rec.Code)
	}
	parts = strings.Split(rec.Header().Get("traceparent"), "-")
	if len(parts) != 4 || len(parts[1]) != 32 || parts[1] == callerTrace {
		t.Errorf("bad ingress should yield a fresh trace ID, got %q", rec.Header().Get("traceparent"))
	}
}

func TestTracesListFilters(t *testing.T) {
	s := testServerCfg(t, traceConfig())
	for i := 0; i < 3; i++ {
		rec := get(t, s, fmt.Sprintf("/v1/search?K=60&k=6&x=%d", 10+i))
		if rec.Code != http.StatusOK {
			t.Fatalf("search %d = %d", i, rec.Code)
		}
	}
	list := getJSON(t, s, "/v1/traces")
	if list["count"].(float64) < 3 {
		t.Fatalf("count = %v, want >= 3", list["count"])
	}
	rows := list["traces"].([]any)
	for _, v := range rows {
		row := v.(map[string]any)
		if row["corpus"] != "default" || row["reason"] != "slow" {
			t.Errorf("row = %v, want default/slow", row)
		}
	}
	if n := getJSON(t, s, "/v1/traces?limit=1")["count"].(float64); n != 1 {
		t.Errorf("limit=1 count = %v", n)
	}
	if n := getJSON(t, s, "/v1/traces?reason=sampled")["count"].(float64); n != 0 {
		t.Errorf("reason=sampled count = %v, want 0 (sampling disabled)", n)
	}
	if n := getJSON(t, s, "/v1/traces?status=503")["count"].(float64); n != 0 {
		t.Errorf("status=503 count = %v, want 0", n)
	}
	if n := getJSON(t, s, "/v1/traces?min_duration_ms=60000")["count"].(float64); n != 0 {
		t.Errorf("min_duration_ms=60000 count = %v, want 0", n)
	}
	if rec := get(t, s, "/v1/traces?corpus=nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown corpus = %d, want 404", rec.Code)
	}
	if rec := get(t, s, "/v1/traces?status=banana"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad status filter = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/v1/traces/deadbeef"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", rec.Code)
	}
}

func TestTracesDisabled(t *testing.T) {
	s := testServerCfg(t, Config{DisableTraces: true})
	if rec := get(t, s, "/v1/search?K=60&k=6"); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	if rec := get(t, s, "/v1/traces"); rec.Code != http.StatusForbidden {
		t.Errorf("/v1/traces = %d, want 403", rec.Code)
	}
	if rec := get(t, s, "/v1/traces/abc"); rec.Code != http.StatusForbidden {
		t.Errorf("/v1/traces/{id} = %d, want 403", rec.Code)
	}
}

// The access-log and slow-query lines both name the corpus and carry
// the retained trace's ID, so any log line jumps straight to its span
// tree.
func TestTraceLogsCarryCorpusAndTraceID(t *testing.T) {
	var access, slow bytes.Buffer
	cfg := traceConfig()
	cfg.AccessLog = &access
	cfg.SlowQuery = time.Nanosecond
	cfg.SlowQueryLog = &slow
	s := testServerCfg(t, cfg)

	if rec := get(t, s, "/v1/search?K=60&k=6"); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	var accessLine, slowLine map[string]any
	if err := json.Unmarshal(bytes.Split(access.Bytes(), []byte("\n"))[0], &accessLine); err != nil {
		t.Fatalf("access line: %v (%s)", err, access.String())
	}
	if err := json.Unmarshal(bytes.Split(slow.Bytes(), []byte("\n"))[0], &slowLine); err != nil {
		t.Fatalf("slow line: %v (%s)", err, slow.String())
	}
	for name, line := range map[string]map[string]any{"access": accessLine, "slow": slowLine} {
		if line["corpus"] != "default" {
			t.Errorf("%s log corpus = %v, want default", name, line["corpus"])
		}
		id, _ := line["trace_id"].(string)
		if id == "" {
			t.Fatalf("%s log has no trace_id: %v", name, line)
		}
		if rec := get(t, s, "/v1/traces/"+id); rec.Code != http.StatusOK {
			t.Errorf("%s log trace_id %s does not resolve: %d", name, id, rec.Code)
		}
	}
	if accessLine["trace_id"] != slowLine["trace_id"] {
		t.Errorf("access and slow lines disagree on trace_id: %v vs %v",
			accessLine["trace_id"], slowLine["trace_id"])
	}
}

// Two tenants under concurrent queries, mutations and trace reads: the
// per-tenant rings stay isolated (a corpus filter only ever returns its
// own traces) and no reader observes a torn span tree. Run with -race.
func TestTraceChurnTwoTenants(t *testing.T) {
	cfg := Config{EnableMutation: true, TraceSample: 1.1}
	s := testServerCfg(t, cfg)
	if rec := postJSON(t, s, "/v1/corpora", map[string]any{"name": "beta", "places": 300}); rec.Code != http.StatusCreated {
		t.Fatalf("create beta = %d: %s", rec.Code, rec.Body.String())
	}

	checkTree := func(tr map[string]any) {
		spans, _ := tr["spans"].([]any)
		ids := map[float64]bool{}
		for _, v := range spans {
			sp := v.(map[string]any)
			id := sp["id"].(float64)
			if ids[id] {
				t.Errorf("trace %v: duplicate span ID %v", tr["trace_id"], id)
			}
			ids[id] = true
		}
		for _, v := range spans {
			sp := v.(map[string]any)
			if p := sp["parent"].(float64); p != 0 && !ids[p] {
				t.Errorf("trace %v: span %v parented to missing span %v", tr["trace_id"], sp["id"], p)
			}
		}
	}

	var wg sync.WaitGroup
	for _, corpus := range []string{"default", "beta"} {
		base := "/v1/corpora/" + corpus
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					path := fmt.Sprintf("%s/search?K=40&k=4&x=%d.%d", base, 10+i%5, w)
					req := httptest.NewRequest(http.MethodGet, path, nil)
					s.ServeHTTP(httptest.NewRecorder(), req)
				}
			}(w)
		}
		wg.Add(1)
		go func(base, corpus string) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				postJSON(t, s, base+"/corpus", map[string]any{
					"upserts": []map[string]any{
						{"id": fmt.Sprintf("churn-%s-%d", corpus, i), "x": 1.0 + float64(i), "y": 2.0, "context": []string{"churn"}},
					},
				})
			}
		}(base, corpus)
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces?limit=20", nil))
				var list map[string]any
				if json.Unmarshal(rec.Body.Bytes(), &list) != nil {
					continue
				}
				rows, _ := list["traces"].([]any)
				for _, v := range rows {
					row := v.(map[string]any)
					c, _ := row["corpus"].(string)
					if c != "default" && c != "beta" {
						t.Errorf("trace row names unknown corpus %q", c)
					}
					id, _ := row["trace_id"].(string)
					one := httptest.NewRecorder()
					s.ServeHTTP(one, httptest.NewRequest(http.MethodGet, "/v1/traces/"+id, nil))
					if one.Code != http.StatusOK {
						continue // evicted between list and get
					}
					var tr map[string]any
					if json.Unmarshal(one.Body.Bytes(), &tr) == nil {
						checkTree(tr)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	for _, corpus := range []string{"default", "beta"} {
		list := getJSON(t, s, "/v1/traces?corpus="+corpus+"&limit=500")
		rows := list["traces"].([]any)
		if len(rows) == 0 {
			t.Errorf("corpus %s retained no traces under sample=1", corpus)
		}
		for _, v := range rows {
			if got := v.(map[string]any)["corpus"]; got != corpus {
				t.Errorf("corpus filter %s returned trace of %v: ring isolation broken", corpus, got)
			}
		}
	}
}
