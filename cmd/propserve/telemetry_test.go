package main

// Tests for the observability surface added in PR 2: the /metrics
// exposition, per-request stage timing diagnostics, request IDs, gate
// statistics under shed load, and the structured access log.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// metricsSeries fetches /metrics and returns its sample lines keyed by
// full series (name + label set), failing the test on any malformed or
// duplicate line.
func metricsSeries(t *testing.T, s *Server) map[string]string {
	t.Helper()
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	series := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, dup := series[m[1]]; dup {
			t.Fatalf("duplicate series %q", m[1])
		}
		series[m[1]] = m[2]
	}
	return series
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 3; i++ {
		if rec := get(t, s, "/v1/search?K=60&k=5"); rec.Code != http.StatusOK {
			t.Fatalf("search status = %d", rec.Code)
		}
	}
	get(t, s, "/v1/search?k=0") // one 400 for the code label

	series := metricsSeries(t, s)
	if series[`propserve_requests_total{code="200"}`] == "" {
		t.Error("missing propserve_requests_total{code=\"200\"}")
	}
	if series[`propserve_requests_total{code="400"}`] != "1" {
		t.Errorf("requests_total{400} = %q, want 1", series[`propserve_requests_total{code="400"}`])
	}
	// The per-stage histogram must carry the Step 1 / Step 2 stages.
	for _, stage := range []string{"parse", "admission_wait", "retrieve", "step1_pcs", "step1_pss", "step2_select", "encode"} {
		key := `propserve_stage_seconds_count{stage="` + stage + `"}`
		if v := series[key]; v == "" || v == "0" {
			t.Errorf("%s = %q, want ≥ 1", key, v)
		}
	}
	// Gate gauges and counters are present; three searches were admitted.
	for _, key := range []string{
		"propserve_gate_inflight", "propserve_gate_queued", "propserve_gate_capacity",
		"propserve_gate_shed_total", "propserve_gate_queue_timeout_total",
		"propserve_panics_recovered_total",
	} {
		if _, ok := series[key]; !ok {
			t.Errorf("missing %s", key)
		}
	}
	if series["propserve_gate_admitted_total"] != "3" {
		t.Errorf("gate_admitted_total = %q, want 3", series["propserve_gate_admitted_total"])
	}
	if series["propserve_request_seconds_count"] == "" {
		t.Error("missing propserve_request_seconds_count")
	}
}

func TestSearchDiagnosticsStageBreakdown(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/v1/search?K=80&k=8&spatial=exact")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp engine.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	stages, ok := resp.Diagnostics["stage_ms"].(map[string]any)
	if !ok {
		t.Fatalf("diagnostics missing stage_ms: %v", resp.Diagnostics)
	}
	// The breakdown must match DESIGN.md's decomposition: Step 1 split
	// into pCS and pSS, Step 2 selection, plus the serving stages.
	var sum float64
	for _, stage := range []string{"parse", "admission_wait", "retrieve", "step1_pcs", "step1_pss", "step2_select"} {
		v, ok := stages[stage].(float64)
		if !ok || v < 0 {
			t.Errorf("stage %q missing or negative: %v", stage, stages[stage])
		}
		sum += v
	}
	elapsed, ok := resp.Diagnostics["elapsed_ms"].(float64)
	if !ok {
		t.Fatalf("diagnostics missing elapsed_ms: %v", resp.Diagnostics)
	}
	// Stage times are disjoint slices of the request, so they sum to no
	// more than the wall time (elapsed_ms is read after the stages end;
	// allow rounding slack).
	if sum > elapsed+1 {
		t.Errorf("stage sum %.3fms exceeds elapsed %.3fms", sum, elapsed)
	}
}

func TestRequestIDStableAcrossHeaderAndBody(t *testing.T) {
	s := testServer(t)

	// Success path: the response body echoes the header ID.
	rec := get(t, s, "/v1/search?K=60&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp engine.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	headerID := rec.Header().Get("X-Request-ID")
	if headerID == "" || resp.RequestID != headerID {
		t.Errorf("body id %q, header id %q; want equal and non-empty", resp.RequestID, headerID)
	}

	// Error path: 4xx responses carry the ID in header and error body.
	rec = get(t, s, "/v1/search?k=0")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	var errBody map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
		t.Fatal(err)
	}
	if id := rec.Header().Get("X-Request-ID"); id == "" || errBody["request_id"] != id {
		t.Errorf("400 body id %q, header id %q", errBody["request_id"], id)
	}

	// Client-supplied IDs round-trip.
	req := httptest.NewRequest(http.MethodGet, "/v1/search?K=60&k=5", nil)
	req.Header.Set("X-Request-ID", "trace-me-7")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Header().Get("X-Request-ID") != "trace-me-7" {
		t.Errorf("client ID not echoed: %q", rr.Header().Get("X-Request-ID"))
	}
}

func TestRequestIDOnPanicPath(t *testing.T) {
	s := testServer(t)
	fired := false
	restore := core.SetCheckpointHook(func(string) {
		if !fired {
			fired = true
			panic("telemetry probe")
		}
	})
	rec := get(t, s, "/v1/search?K=60&k=5")
	restore()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("panic 500 without X-Request-ID")
	}
	// The recovered panic is visible in /stats and /metrics.
	var stats map[string]any
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["panics_recovered"] != float64(1) {
		t.Errorf("/stats panics_recovered = %v, want 1", stats["panics_recovered"])
	}
	if v := metricsSeries(t, s)["propserve_panics_recovered_total"]; v != "1" {
		t.Errorf("propserve_panics_recovered_total = %q, want 1", v)
	}
}

// TestGateCountersUnderShedLoad saturates a 1-slot, 1-waiter gate and
// verifies the admission counters advance and surface in /stats and
// /metrics.
func TestGateCountersUnderShedLoad(t *testing.T) {
	s := testServerCfg(t, Config{
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueWait:    5 * time.Second,
		QueryTimeout: 30 * time.Second,
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := core.SetCheckpointHook(func(string) {
		once.Do(func() { close(entered) })
		<-release
	})
	defer restore()

	r1 := make(chan *httptest.ResponseRecorder, 1)
	go func() { r1 <- get(t, s, "/v1/search?K=60&k=5") }()
	<-entered // request 1 holds the only slot

	r2 := make(chan *httptest.ResponseRecorder, 1)
	go func() { r2 <- get(t, s, "/v1/search?K=60&k=5") }()
	deadline := time.Now().Add(5 * time.Second)
	for s.def.Gate.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request 2 never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: requests 3 and 4 shed immediately.
	for i := 0; i < 2; i++ {
		if rec := get(t, s, "/v1/search?K=60&k=5"); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("saturated status = %d, want 503", rec.Code)
		}
	}
	close(release)
	<-r1
	<-r2

	gs := s.def.Gate.Stats()
	if gs.Admitted != 2 {
		t.Errorf("Admitted = %d, want 2", gs.Admitted)
	}
	if gs.Shed != 2 {
		t.Errorf("Shed = %d, want 2", gs.Shed)
	}
	var stats struct {
		Gate map[string]float64 `json:"gate"`
	}
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Gate["admitted"] != 2 || stats.Gate["shed"] != 2 {
		t.Errorf("/stats gate = %v, want admitted 2, shed 2", stats.Gate)
	}
	series := metricsSeries(t, s)
	if series["propserve_gate_admitted_total"] != "2" || series["propserve_gate_shed_total"] != "2" {
		t.Errorf("metrics: admitted %q shed %q, want 2/2",
			series["propserve_gate_admitted_total"], series["propserve_gate_shed_total"])
	}
	// 503 responses were counted by status code, and the queue-wait
	// histogram saw every admission attempt.
	if series[`propserve_requests_total{code="503"}`] != "2" {
		t.Errorf("requests_total{503} = %q, want 2", series[`propserve_requests_total{code="503"}`])
	}
	if series["propserve_gate_queue_wait_seconds_count"] != "4" {
		t.Errorf("queue_wait count = %q, want 4", series["propserve_gate_queue_wait_seconds_count"])
	}
}

// TestLatencyHistogramsAfterMixedTraffic drives hits, misses and shed
// requests, then checks every series of the three latency histogram
// families on /metrics: 34 finite buckets whose cumulative counts never
// decrease, and a +Inf bucket equal to _count.
func TestLatencyHistogramsAfterMixedTraffic(t *testing.T) {
	s := testServerCfg(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := core.SetCheckpointHook(func(string) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	held := make(chan *httptest.ResponseRecorder, 1)
	go func() { held <- get(t, s, "/v1/search?K=60&k=5") }()
	<-entered
	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() { queued <- get(t, s, "/v1/search?K=60&k=5") }()
	for deadline := time.Now().Add(5 * time.Second); s.def.Gate.Queued() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
	}
	if rec := get(t, s, "/v1/search?K=60&k=5"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503", rec.Code)
	}
	close(release)
	<-held
	<-queued
	restore()
	for i := 0; i < 6; i++ {
		get(t, s, "/v1/search?K=60&k=5")                                  // hit
		get(t, s, fmt.Sprintf("/v1/search?K=60&k=5&x=%d&y=%d", 10+i, 20)) // miss
	}

	series := metricsSeries(t, s)
	families := map[string]bool{}
	for key := range series {
		base, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			base, labels = key[:i], key[i+1:len(key)-1]+","
		}
		if name, ok := strings.CutSuffix(base, "_seconds_count"); ok {
			families[name+"_seconds|"+labels] = true
		}
	}
	for _, want := range []string{"propserve_request_seconds|", "propserve_gate_queue_wait_seconds|", `propserve_stage_seconds|stage="retrieve",`} {
		if !families[want] {
			t.Errorf("no histogram series %q on /metrics", want)
		}
	}
	for fam := range families {
		name, labels, _ := strings.Cut(fam, "|")
		prefix := name + "_bucket{" + labels + "le="
		type bucket struct {
			le  float64
			cum uint64
		}
		var buckets []bucket
		for key, v := range series {
			le, ok := strings.CutPrefix(key, prefix)
			if !ok || le == `"+Inf"}` {
				continue
			}
			f, err := strconv.ParseFloat(strings.Trim(le, `"}`), 64)
			n, err2 := strconv.ParseUint(v, 10, 64)
			if err != nil || err2 != nil {
				t.Fatalf("%s: bad bucket line %s %s", fam, key, v)
			}
			buckets = append(buckets, bucket{f, n})
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		if len(buckets) != 34 || buckets[0].le != 1e-6 {
			t.Errorf("%s: %d finite buckets from %v, want 34 from 1e-06", fam, len(buckets), buckets)
			continue
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i].cum < buckets[i-1].cum {
				t.Errorf("%s: bucket le=%g holds %d < %d below it", fam, buckets[i].le, buckets[i].cum, buckets[i-1].cum)
			}
		}
		countKey := name + "_count"
		if labels != "" {
			countKey += "{" + strings.TrimSuffix(labels, ",") + "}"
		}
		inf := series[prefix+`"+Inf"}`]
		if inf == "" || inf != series[countKey] {
			t.Errorf("%s: +Inf %q != _count %q", fam, inf, series[countKey])
		}
		if last, _ := strconv.ParseUint(inf, 10, 64); last < buckets[len(buckets)-1].cum {
			t.Errorf("%s: +Inf %s below the last finite bucket %d", fam, inf, buckets[len(buckets)-1].cum)
		}
	}
}

func TestServerAccessLog(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.WriteString(string(p))
	})
	s := testServerCfg(t, Config{AccessLog: logw})
	rec := get(t, s, "/v1/search?K=60&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	get(t, s, "/nope")

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d access log lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line not JSON: %v (%q)", err, lines[0])
	}
	if first["path"] != "/v1/search" || first["status"] != float64(200) {
		t.Errorf("first line = %v", first)
	}
	if first["request_id"] != rec.Header().Get("X-Request-ID") {
		t.Errorf("log id %v != response id %q", first["request_id"], rec.Header().Get("X-Request-ID"))
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["status"] != float64(404) {
		t.Errorf("second line = %v", second)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
