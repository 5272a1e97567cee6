package main

// Multi-tenant registry surface: /v1/corpora CRUD, per-corpus stats,
// corpus-scoped routing, and — the property the whole registry exists
// for — cross-tenant isolation of caches, epochs and WALs.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/wal"
)

// corporaList fetches GET /v1/corpora and decodes it.
func corporaList(t *testing.T, s *Server) (count int, corpora map[string]map[string]any) {
	t.Helper()
	rec := get(t, s, "/v1/corpora")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/corpora = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Count   int                       `json:"count"`
		Corpora map[string]map[string]any `json:"corpora"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body.Count, body.Corpora
}

func TestCorporaListDefault(t *testing.T) {
	s := testServer(t)
	count, corpora := corporaList(t, s)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	def, ok := corpora["default"]
	if !ok {
		t.Fatalf("no default corpus in %v", corpora)
	}
	if def["places"] != float64(500) {
		t.Errorf("places = %v, want 500", def["places"])
	}
	if def["epoch"] != float64(0) {
		t.Errorf("epoch = %v, want 0", def["epoch"])
	}
	for _, k := range []string{"shards", "mutations", "cache_hit_ratio"} {
		if _, ok := def[k]; !ok {
			t.Errorf("summary missing %q: %v", k, def)
		}
	}
	w, ok := def["wal"].(map[string]any)
	if !ok {
		t.Fatalf("summary missing wal section: %v", def)
	}
	if w["state"] != "disabled" {
		t.Errorf("wal state = %v, want disabled (no WAL attached)", w["state"])
	}
	if w["lag_records"] != float64(0) {
		t.Errorf("wal lag = %v, want 0", w["lag_records"])
	}
}

func TestCorporaAdminDisabledByDefault(t *testing.T) {
	s := testServer(t)
	rec := postJSON(t, s, "/v1/corpora", map[string]any{"name": "x"})
	if rec.Code != http.StatusForbidden {
		t.Errorf("create without -enable-mutation = %d, want 403", rec.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/corpora/x", nil)
	del := httptest.NewRecorder()
	s.ServeHTTP(del, req)
	if del.Code != http.StatusForbidden {
		t.Errorf("delete without -enable-mutation = %d, want 403", del.Code)
	}
}

func TestCorporaCreateValidation(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})
	for _, bad := range []map[string]any{
		{"name": "UPPER"},
		{"name": "-leading-dash"},
		{"name": ""},
		{"name": "ok", "places": -1},
		{"name": "ok", "places": 1_000_000},
		// Distinct names: a row the server wrongly accepts must not turn
		// the rows after it into 409s.
		{"name": "shards-neg", "shards": -1},
		{"name": "shards-big", "shards": maxShards + 1},
		{"name": "cache-neg", "cache_entries": -1},
	} {
		rec := postJSON(t, s, "/v1/corpora", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("create %v = %d, want 400: %s", bad, rec.Code, rec.Body.String())
		}
	}
}

func TestCorporaLifecycle(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})

	rec := postJSON(t, s, "/v1/corpora", map[string]any{"name": "tenant-b", "places": 300, "seed": 7})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		Name    string         `json:"name"`
		Durable bool           `json:"durable"`
		Stats   map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "tenant-b" || created.Durable {
		t.Errorf("created = %+v, want name tenant-b, volatile", created)
	}
	if created.Stats["places"] != float64(300) {
		t.Errorf("created places = %v, want 300", created.Stats["places"])
	}

	if count, _ := corporaList(t, s); count != 2 {
		t.Errorf("count after create = %d, want 2", count)
	}

	// The name is taken.
	rec = postJSON(t, s, "/v1/corpora", map[string]any{"name": "tenant-b"})
	if rec.Code != http.StatusConflict {
		t.Errorf("duplicate create = %d, want 409: %s", rec.Code, rec.Body.String())
	}

	// The scoped routes serve the new tenant; an unknown name is 404.
	if rec := get(t, s, "/v1/corpora/tenant-b/search?K=60&k=5"); rec.Code != http.StatusOK {
		t.Errorf("scoped search = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/v1/corpora/nope/search?K=60&k=5"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown corpus search = %d, want 404", rec.Code)
	}

	// The default corpus is not deletable; tenant-b is, exactly once.
	del := func(name string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodDelete, "/v1/corpora/"+name, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	if rec := del("default"); rec.Code != http.StatusForbidden {
		t.Errorf("delete default = %d, want 403", rec.Code)
	}
	if rec := del("tenant-b"); rec.Code != http.StatusOK {
		t.Errorf("delete tenant-b = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := del("tenant-b"); rec.Code != http.StatusNotFound {
		t.Errorf("second delete = %d, want 404", rec.Code)
	}
	if count, _ := corporaList(t, s); count != 1 {
		t.Errorf("count after delete = %d, want 1", count)
	}
}

// TestCrossTenantIsolation boots two corpora over identical data and
// asserts the properties multi-tenancy promises: per-tenant score-set
// caches (a hit on one tenant is not a hit on the other), and per-tenant
// epochs (mutating one leaves the other's corpus — and its warm cache —
// untouched).
func TestCrossTenantIsolation(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})

	// Same generator parameters as testServer's default corpus, so the
	// same query is meaningful on both tenants.
	rec := postJSON(t, s, "/v1/corpora", map[string]any{"name": "twin", "places": 500, "seed": 5})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create twin = %d: %s", rec.Code, rec.Body.String())
	}

	cacheOf := func(rec *httptest.ResponseRecorder) string {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
		}
		var resp engine.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		c, _ := resp.Diagnostics["cache"].(string)
		return c
	}

	const q = "K=60&k=5&x=40&y=40"
	if c := cacheOf(get(t, s, "/v1/search?"+q)); c != "miss" {
		t.Errorf("default first query = %q, want miss", c)
	}
	if c := cacheOf(get(t, s, "/v1/search?"+q)); c != "hit" {
		t.Errorf("default repeat = %q, want hit", c)
	}
	// The identical query against the twin corpus must not see the
	// default corpus's cache entry.
	if c := cacheOf(get(t, s, "/v1/corpora/twin/search?"+q)); c != "miss" {
		t.Errorf("twin first query = %q, want miss (cross-tenant cache leak)", c)
	}
	if c := cacheOf(get(t, s, "/v1/corpora/twin/search?"+q)); c != "hit" {
		t.Errorf("twin repeat = %q, want hit", c)
	}

	// Mutate only the twin. Its epoch advances; the default corpus stays
	// at epoch 0 and keeps serving its warm cache entry.
	mut := postJSON(t, s, "/v1/corpora/twin/corpus", map[string]any{
		"upserts": []map[string]any{{"id": "twin:new", "x": 40, "y": 40, "context": []string{"beacon"}}},
	})
	if mut.Code != http.StatusOK {
		t.Fatalf("twin mutation = %d: %s", mut.Code, mut.Body.String())
	}
	_, corpora := corporaList(t, s)
	if e := corpora["twin"]["epoch"]; e != float64(1) {
		t.Errorf("twin epoch = %v, want 1", e)
	}
	if e := corpora["default"]["epoch"]; e != float64(0) {
		t.Errorf("default epoch = %v, want 0 (mutation leaked across tenants)", e)
	}
	if c := cacheOf(get(t, s, "/v1/search?"+q)); c != "hit" {
		t.Errorf("default after twin mutation = %q, want hit (cache invalidated across tenants)", c)
	}

	// Both tenants surface in /v1/stats and as labeled metric series.
	var stats struct {
		Corpora map[string]map[string]any `json:"corpora"`
	}
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Corpora) != 2 {
		t.Fatalf("/v1/stats corpora = %v, want default and twin", stats.Corpora)
	}
	if e := stats.Corpora["twin"]["epoch"]; e != float64(1) {
		t.Errorf("/v1/stats twin epoch = %v, want 1", e)
	}
	series := metricsSeries(t, s)
	for _, want := range []struct{ series, value string }{
		{`propserve_tenant_places{corpus="default"}`, "500"},
		{`propserve_tenant_corpus_epoch{corpus="default"}`, "0"},
		{`propserve_tenant_corpus_epoch{corpus="twin"}`, "1"},
		{`propserve_tenant_mutations_total{corpus="twin"}`, "1"},
	} {
		if got := series[want.series]; got != want.value {
			t.Errorf("%s = %q, want %q", want.series, got, want.value)
		}
	}
}

// TestDurableCorpusRecreateRecovers creates a durable secondary corpus,
// mutates it, and — after a simulated restart — re-creates the same name
// over the same directory: the WAL replay must resurrect the mutation
// rather than serving freshly generated places.
func TestDurableCorpusRecreateRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{EnableMutation: true, CorporaDir: dir}
	create := map[string]any{"name": "dur", "places": 200, "seed": 9}

	s1 := testServerCfg(t, cfg)
	rec := postJSON(t, s1, "/v1/corpora", create)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		Durable bool `json:"durable"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if !created.Durable {
		t.Fatal("corpus under -corpora-dir not durable")
	}
	var ups []map[string]any
	for i := 0; i < 5; i++ {
		ups = append(ups, map[string]any{
			"id": fmt.Sprintf("dur:%d", i), "x": 40 + float64(i)*0.01, "y": 40,
			"context": []string{"durable-beacon"},
		})
	}
	if rec := postJSON(t, s1, "/v1/corpora/dur/corpus", map[string]any{"upserts": ups}); rec.Code != http.StatusOK {
		t.Fatalf("mutation = %d: %s", rec.Code, rec.Body.String())
	}

	// "Restart": a fresh server over the same corpora directory. Creating
	// the same name recovers from the directory's WAL instead of starting
	// over (the generator parameters regenerate the identical base corpus,
	// and replay carries it to the logged epoch).
	s2 := testServerCfg(t, cfg)
	rec = postJSON(t, s2, "/v1/corpora", create)
	if rec.Code != http.StatusCreated {
		t.Fatalf("re-create = %d: %s", rec.Code, rec.Body.String())
	}
	_, corpora := corporaList(t, s2)
	if e := corpora["dur"]["epoch"]; e != float64(1) {
		t.Errorf("recovered epoch = %v, want 1", e)
	}
	if p := corpora["dur"]["places"]; p != float64(205) {
		t.Errorf("recovered places = %v, want 205", p)
	}
	srch := get(t, s2, "/v1/corpora/dur/search?x=40&y=40&K=40&k=5&keywords=durable-beacon")
	if srch.Code != http.StatusOK {
		t.Fatalf("recovered search = %d: %s", srch.Code, srch.Body.String())
	}
	if !strings.Contains(srch.Body.String(), "dur:") {
		t.Errorf("recovered search does not select replayed places: %s", srch.Body.String())
	}
}

// TestBootCorpusScan: bootCorpus over an existing directory recovers
// the directory's snapshot and never calls the generator — the open
// step the -corpora-dir scan at boot shares.
func TestBootCorpusScan(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{EnableMutation: true, CorporaDir: dir}

	s1 := testServerCfg(t, cfg)
	if rec := postJSON(t, s1, "/v1/corpora", map[string]any{"name": "scanme", "places": 150, "seed": 3}); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postJSON(t, s1, "/v1/corpora/scanme/corpus", map[string]any{
		"upserts": []map[string]any{{"id": "scan:1", "x": 1, "y": 1, "context": []string{"w"}}},
	}); rec.Code != http.StatusOK {
		t.Fatalf("mutation = %d: %s", rec.Code, rec.Body.String())
	}
	// Compact so the directory holds a snapshot: the boot scan must then
	// recover real state without depending on the generator matching.
	tn1, ok := s1.reg.Get("scanme")
	if !ok {
		t.Fatal("scanme not registered")
	}
	s1.compactTenantWAL(tn1)

	s2 := testServerCfg(t, cfg)
	tn, err := s2.bootCorpus(context.Background(), "scanme", tn1.WALDir,
		func() (*dataset.Dataset, error) { panic("snapshot present; generator must not run") }, engineOptions(cfg))
	if err != nil {
		t.Fatalf("bootCorpus: %v", err)
	}
	if tn.Eng.Epoch() != 1 {
		t.Errorf("scanned epoch = %d, want 1", tn.Eng.Epoch())
	}
	if !tn.Ready() {
		t.Error("scanned corpus not ready for mutations")
	}
	if got := tn.Eng.Stats().Places; got != 151 {
		t.Errorf("scanned places = %d, want 151", got)
	}
}

// TestDurableCorporaUseServerWALOptions: corpora created through POST
// /v1/corpora and re-registered by the boot scan open their logs with
// the server's -wal-sync policy, and closeWALs closes every tenant's log.
func TestDurableCorporaUseServerWALOptions(t *testing.T) {
	dir := t.TempDir()
	s := testServerCfg(t, Config{EnableMutation: true, CorporaDir: dir, WAL: wal.Options{Sync: wal.SyncNever}})
	if rec := postJSON(t, s, "/v1/corpora", map[string]any{"name": "lazy", "places": 100, "seed": 1}); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	created, ok := s.reg.Get("lazy")
	if !ok {
		t.Fatal("lazy not registered")
	}
	scanned, err := s.bootCorpus(context.Background(), "scanned", filepath.Join(dir, "scanned"),
		func() (*dataset.Dataset, error) { return durTestData(t, 2, 100), nil }, engineOptions(s.cfg))
	if err != nil {
		t.Fatalf("bootCorpus: %v", err)
	}
	for _, tn := range []*registry.Tenant{created, scanned} {
		if got := tn.WAL().SyncPolicy(); got != wal.SyncNever {
			t.Errorf("corpus %q: wal sync policy %v, want never", tn.Name, got)
		}
	}
	s.closeWALs()
	for _, tn := range []*registry.Tenant{created, scanned} {
		if err := tn.WAL().Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("corpus %q: second Close = %v, want os.ErrClosed (closeWALs left it open)", tn.Name, err)
		}
	}
}
