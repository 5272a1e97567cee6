package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestCorpusDisabledByDefault(t *testing.T) {
	s := testServer(t)
	rec := postJSON(t, s, "/v1/corpus", map[string]any{
		"upserts": []map[string]any{{"id": "poi:x", "x": 1, "y": 2, "context": []string{"w"}}},
	})
	if rec.Code != http.StatusForbidden {
		t.Fatalf("status = %d, want 403 without -enable-mutation: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "enable-mutation") {
		t.Errorf("error body does not name the flag: %s", rec.Body.String())
	}
}

func TestCorpusMutationRoundTrip(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})

	// Before the mutation: epoch 0, and the beacon word is unknown.
	rec := get(t, s, "/v1/search?x=40&y=40&K=40&k=8&keywords=live-beacon")
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-mutation search: %d: %s", rec.Code, rec.Body.String())
	}
	var pre engine.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pre); err != nil {
		t.Fatal(err)
	}
	if got := pre.Diagnostics["corpus_epoch"]; got != float64(0) {
		t.Errorf("pre-mutation corpus_epoch = %v, want 0", got)
	}
	if _, ok := pre.Diagnostics["keywords_dropped"]; !ok {
		t.Errorf("unknown keyword not reported as dropped: %v", pre.Diagnostics)
	}

	// Publish a cluster of places carrying the beacon word at the query
	// point, and delete nothing that exists.
	var ups []map[string]any
	for i := 0; i < 10; i++ {
		ups = append(ups, map[string]any{
			"id": fmt.Sprintf("live:%d", i), "x": 40 + float64(i)*0.01, "y": 40,
			"context": []string{"live-beacon"},
		})
	}
	// The mutation is admitted like a query: one admission_wait span and
	// one queue-wait sample.
	admissionSamples := func() (spans, waits string) {
		series := metricsSeries(t, s)
		return series[`propserve_stage_seconds_count{stage="admission_wait"}`], series["propserve_gate_queue_wait_seconds_count"]
	}
	spansBefore, waitsBefore := admissionSamples()
	rec = postJSON(t, s, "/v1/corpus", map[string]any{"upserts": ups, "deletes": []string{"no-such-id"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mutation: %d: %s", rec.Code, rec.Body.String())
	}
	spans, waits := admissionSamples()
	if spansBefore != "1" || waitsBefore != "1" || spans != "2" || waits != "2" {
		t.Errorf("admission_wait spans %s → %s, queue waits %s → %s; want 1 → 2 each",
			spansBefore, spans, waitsBefore, waits)
	}
	var mres struct {
		RequestID string   `json:"request_id"`
		Epoch     uint64   `json:"epoch"`
		Upserted  int      `json:"upserted"`
		Deleted   int      `json:"deleted"`
		Missing   []string `json:"missing"`
		Swept     int      `json:"swept_entries"`
		Places    int      `json:"places"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &mres); err != nil {
		t.Fatal(err)
	}
	if mres.Epoch != 1 || mres.Upserted != 10 || mres.Deleted != 0 || len(mres.Missing) != 1 {
		t.Errorf("mutation result = %+v", mres)
	}
	if mres.Places != 510 {
		t.Errorf("places = %d, want 510", mres.Places)
	}
	if mres.Swept != 1 {
		t.Errorf("swept = %d, want 1 (the pre-mutation search's cached score set)", mres.Swept)
	}

	// After: the same search runs on epoch 1, resolves the keyword, and
	// selects from the cluster.
	rec = get(t, s, "/v1/search?x=40&y=40&K=40&k=8&keywords=live-beacon")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-mutation search: %d: %s", rec.Code, rec.Body.String())
	}
	var post engine.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &post); err != nil {
		t.Fatal(err)
	}
	if got := post.Diagnostics["corpus_epoch"]; got != float64(1) {
		t.Errorf("post-mutation corpus_epoch = %v, want 1", got)
	}
	if _, ok := post.Diagnostics["keywords_dropped"]; ok {
		t.Errorf("keyword still reported dropped after the upsert: %v", post.Diagnostics)
	}
	found := false
	for _, p := range post.Results {
		if strings.HasPrefix(p.ID, "live:") {
			found = true
		}
	}
	if !found {
		t.Errorf("no upserted place selected: %s", rec.Body.String())
	}

	// The epoch and mutation counters surface everywhere an operator looks.
	var stats map[string]any
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["corpus_epoch"] != float64(1) {
		t.Errorf("/v1/stats corpus_epoch = %v", stats["corpus_epoch"])
	}
	corpus, _ := stats["corpus"].(map[string]any)
	if corpus == nil || corpus["mutations"] != float64(1) || corpus["mutation_api"] != true ||
		corpus["kept_entries"] != float64(0) || corpus["swept_entries"] != float64(1) {
		t.Errorf("/v1/stats corpus section = %v", stats["corpus"])
	}

	var health map[string]any
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["corpus_epoch"] != float64(1) || health["places"] != float64(510) {
		t.Errorf("/healthz = %v", health)
	}

	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"propserve_corpus_epoch 1",
		"propserve_corpus_places 510",
		"propserve_corpus_mutations_total 1",
		"propserve_corpus_mutation_requests_total 1",
		"propserve_corpus_swept_entries_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestCorpusRejectsBadBatches(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true, MaxMutationBatch: 2})

	// Over the operation cap.
	rec := postJSON(t, s, "/v1/corpus", map[string]any{
		"deletes": []string{"a", "b", "c"},
	})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit of 2") {
		t.Errorf("oversize batch: %d: %s", rec.Code, rec.Body.String())
	}

	// Empty and malformed bodies.
	if rec := postJSON(t, s, "/v1/corpus", map[string]any{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: %d", rec.Code)
	}
	req := postJSON(t, s, "/v1/corpus", "not an object")
	if req.Code != http.StatusBadRequest {
		t.Errorf("malformed body: %d", req.Code)
	}

	// An invalid upsert is a 400 from the engine's typed error, and the
	// epoch does not move.
	rec = postJSON(t, s, "/v1/corpus", map[string]any{
		"upserts": []map[string]any{{"id": "", "x": 1, "y": 2}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid upsert: %d: %s", rec.Code, rec.Body.String())
	}
	var health map[string]any
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["corpus_epoch"] != float64(0) {
		t.Errorf("rejected batches moved the epoch: %v", health["corpus_epoch"])
	}
}
