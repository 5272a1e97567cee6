package main

// Tests for the durable corpus: the boot sequence in durability.go
// (snapshot + WAL replay), the liveness/readiness split, degraded
// serving, and snapshot compaction. The kill-recovery suite that
// SIGKILLs a real process lives in crash_test.go.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/wal"
)

func durTestData(t *testing.T, seed int64, places int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DBpediaLike(seed)
	cfg.Places = places
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func beaconBatch(gen, n int) engine.Mutation {
	var m engine.Mutation
	for i := 0; i < n; i++ {
		m.Upserts = append(m.Upserts, dataset.Upsert{
			ID: fmt.Sprintf("dur:%d:%d", gen, i), X: 40 + float64(i)*0.01, Y: 40,
			Context: []string{"durable-beacon", fmt.Sprintf("gen-%d", gen)},
		})
	}
	if gen > 1 {
		m.Deletes = []string{fmt.Sprintf("dur:%d:0", gen-1)}
	}
	return m
}

// openDurable runs the production open step for the default corpus
// over walDir: the newest snapshot if any, else the seed-9 test corpus,
// then the WAL open. The log is closed when the test ends.
func openDurable(t *testing.T, walDir string, cfg Config) (*Server, *openedCorpus, error) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	cfg.EnableMutation = true
	s := newServer(cfg)
	oc, err := s.openCorpus(registry.DefaultName, walDir,
		func() (*dataset.Dataset, error) { return durTestData(t, 9, 300), nil }, engineOptions(s.cfg))
	if oc != nil && oc.log != nil {
		t.Cleanup(func() { oc.log.Close() })
	}
	return s, oc, err
}

// durableServer builds a server over walDir through the production
// boot: openDurable, then recoverCorpus.
func durableServer(t *testing.T, walDir string, cfg Config) (*Server, *wal.Log) {
	t.Helper()
	s, oc, err := openDurable(t, walDir, cfg)
	if err != nil {
		t.Fatalf("openCorpus: %v", err)
	}
	if err := s.recoverCorpus(context.Background(), oc); err != nil {
		t.Fatalf("recoverCorpus: %v", err)
	}
	return s, oc.log
}

// corpusState flattens the published corpus into a comparable map.
func corpusState(s *Server) map[string]string {
	d, _ := s.def.Eng.Snapshot()
	out := make(map[string]string, len(d.Places))
	for _, p := range d.Places {
		out[p.Label] = fmt.Sprintf("%v/%d", p.Loc, p.Context.Len())
	}
	return out
}

// TestRecoveryEquivalence is the core durability property: a server
// restarted from snapshot + log replay holds exactly the corpus an
// uninterrupted server holds after the same acknowledged mutations.
func TestRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()

	// Reference: the same mutations applied to an engine that never went
	// down (same seed corpus as durableServer's fallback).
	ref := engine.New(durTestData(t, 9, 300), engine.Options{})
	s1, _ := durableServer(t, dir, Config{})
	for gen := 1; gen <= 5; gen++ {
		m := beaconBatch(gen, 4)
		rec := postJSON(t, s1, "/v1/corpus", m)
		if rec.Code != http.StatusOK {
			t.Fatalf("mutation gen %d: %d: %s", gen, rec.Code, rec.Body.String())
		}
		if _, err := ref.Mutate(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	if s1.def.Eng.Epoch() != 5 {
		t.Fatalf("epoch after 5 mutations = %d", s1.def.Eng.Epoch())
	}

	// "Restart": a second server recovers from the same directory.
	s2, _ := durableServer(t, dir, Config{})
	if got := s2.def.Eng.Epoch(); got != 5 {
		t.Fatalf("recovered epoch = %d, want 5", got)
	}
	if replayed, epoch, _ := s2.def.RecoveryStats(); replayed != 5 || epoch != 5 {
		t.Errorf("recovery stats = %d records to epoch %d, want 5 and 5", replayed, epoch)
	}

	want := make(map[string]string)
	{
		d := ref.Corpus()
		for _, p := range d.Places {
			want[p.Label] = fmt.Sprintf("%v/%d", p.Loc, p.Context.Len())
		}
	}
	got := corpusState(s2)
	if len(got) != len(want) {
		t.Fatalf("recovered corpus has %d places, reference %d", len(got), len(want))
	}
	for id, v := range want {
		if got[id] != v {
			t.Fatalf("place %q = %q after recovery, reference %q", id, got[id], v)
		}
	}

	// And the recovered server keeps mutating from where history left off.
	rec := postJSON(t, s2, "/v1/corpus", beaconBatch(6, 2))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-recovery mutation: %d: %s", rec.Code, rec.Body.String())
	}
	if s2.def.Eng.Epoch() != 6 {
		t.Errorf("post-recovery epoch = %d, want 6", s2.def.Eng.Epoch())
	}
}

// TestRecoveryFromSnapshotPlusSuffix: compaction writes a snapshot and
// truncates the log; a restart loads the snapshot and replays only the
// suffix, reaching the same epoch.
func TestRecoveryFromSnapshotPlusSuffix(t *testing.T) {
	dir := t.TempDir()
	s1, l1 := durableServer(t, dir, Config{})
	for gen := 1; gen <= 4; gen++ {
		if rec := postJSON(t, s1, "/v1/corpus", beaconBatch(gen, 3)); rec.Code != http.StatusOK {
			t.Fatalf("gen %d: %d", gen, rec.Code)
		}
	}
	s1.compactTenantWAL(s1.def)
	if st := l1.Stats(); st.Records != 0 || st.Compactions != 1 {
		t.Fatalf("after compaction: %+v", st)
	}
	// Two more mutations land in the fresh log suffix.
	for gen := 5; gen <= 6; gen++ {
		if rec := postJSON(t, s1, "/v1/corpus", beaconBatch(gen, 3)); rec.Code != http.StatusOK {
			t.Fatalf("gen %d: %d", gen, rec.Code)
		}
	}
	want := corpusState(s1)

	s2, _ := durableServer(t, dir, Config{})
	if s2.def.Eng.Epoch() != 6 {
		t.Fatalf("recovered epoch = %d, want 6", s2.def.Eng.Epoch())
	}
	replayed, recoveredEpoch, _ := s2.def.RecoveryStats()
	if replayed != 2 {
		t.Errorf("replayed %d records, want only the 2 past the snapshot", replayed)
	}
	if recoveredEpoch != 6 {
		t.Errorf("recovered_epoch = %d, want 6", recoveredEpoch)
	}
	got := corpusState(s2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d places, want %d", len(got), len(want))
	}
	for id, v := range want {
		if got[id] != v {
			t.Fatalf("place %q = %q, want %q", id, got[id], v)
		}
	}
}

// TestCompactionTriggersInBackground: pushing the log past
// WALCompactRecords makes a mutation kick off compaction on its own.
func TestCompactionTriggersInBackground(t *testing.T) {
	dir := t.TempDir()
	s, l := durableServer(t, dir, Config{WALCompactRecords: 3})
	for gen := 1; gen <= 4; gen++ {
		if rec := postJSON(t, s, "/v1/corpus", beaconBatch(gen, 2)); rec.Code != http.StatusOK {
			t.Fatalf("gen %d: %d", gen, rec.Code)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", l.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	snaps, err := wal.Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot after compaction: %v, %v", snaps, err)
	}
}

// TestReadyzLifecycle: /readyz answers 503 "recovering" between the
// default tenant's BeginRecovery and FinishRecovery, 200 "ready" after; /healthz stays
// 200 throughout (liveness must not restart a recovering server).
func TestReadyzLifecycle(t *testing.T) {
	s := testServerCfg(t, Config{})
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d, want 200", rec.Code)
	}

	s.def.BeginRecovery()
	rec := get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during recovery = %d, want 503", rec.Code)
	}
	var body map[string]any
	json.Unmarshal(rec.Body.Bytes(), &body)
	if body["status"] != "recovering" {
		t.Errorf("recovering body = %v", body)
	}
	if rec = get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz during recovery = %d, want 200 (liveness)", rec.Code)
	}
	json.Unmarshal(rec.Body.Bytes(), &body)
	if body["ready"] != false || body["wal"] != "recovering" {
		t.Errorf("healthz body during recovery = %v", body)
	}

	s.def.FinishRecovery(0, 0, 0)
	if rec = get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", rec.Code)
	}
}

// TestMutationsShedDuringRecovery: POST /v1/corpus answers 503 with
// Retry-After while not ready, and searches keep working.
func TestMutationsShedDuringRecovery(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})
	s.def.BeginRecovery()

	rec := postJSON(t, s, "/v1/corpus", beaconBatch(1, 2))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mutation during recovery = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 during recovery carries no Retry-After")
	}
	if rec = get(t, s, "/v1/search?x=40&y=40&K=40&k=8&keywords=park"); rec.Code != http.StatusOK {
		t.Fatalf("search during recovery = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// TestDegradedModeServesReadsShedsWrites: after Tenant.Degrade the server is
// ready, reads work, mutations answer 503 naming the degradation, and
// /v1/stats + /healthz expose the state.
func TestDegradedModeServesReadsShedsWrites(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})
	s.def.BeginRecovery()
	s.def.Degrade(fmt.Errorf("wal directory on a dead disk"))

	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("degraded /readyz = %d, want 200 (read-mostly but serving)", rec.Code)
	}
	if rec := get(t, s, "/v1/search?x=40&y=40&K=40&k=8&keywords=park"); rec.Code != http.StatusOK {
		t.Fatalf("degraded search = %d", rec.Code)
	}
	rec := postJSON(t, s, "/v1/corpus", beaconBatch(1, 2))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded mutation = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "dead disk") {
		t.Errorf("503 body does not carry the degradation reason: %s", rec.Body.String())
	}

	var stats map[string]any
	rec = get(t, s, "/v1/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	walSec, _ := stats["wal"].(map[string]any)
	if walSec["state"] != "degraded" || walSec["degraded_reason"] == nil {
		t.Errorf("stats wal section = %v", walSec)
	}
	var health map[string]any
	json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &health)
	if health["wal"] != "degraded" {
		t.Errorf("healthz wal = %v, want degraded", health["wal"])
	}
}

// TestQueriesDuringReplay races searches against recoverCorpus: reads must
// serve consistent epochs the whole way through (run under -race this is
// the replay/readiness data-race check).
func TestQueriesDuringReplay(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableServer(t, dir, Config{})
	for gen := 1; gen <= 8; gen++ {
		if rec := postJSON(t, s1, "/v1/corpus", beaconBatch(gen, 3)); rec.Code != http.StatusOK {
			t.Fatalf("gen %d: %d", gen, rec.Code)
		}
	}

	// Second server: opened only, so recovery can be raced explicitly.
	s2, oc, err := openDurable(t, dir, Config{})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, s2, "/v1/search?x=40&y=40&K=40&k=8&keywords=durable-beacon")
				if rec.Code != http.StatusOK {
					t.Errorf("search during replay = %d: %s", rec.Code, rec.Body.String())
					return
				}
				get(t, s2, "/readyz")
				get(t, s2, "/metrics")
			}
		}()
	}
	if err := s2.recoverCorpus(context.Background(), oc); err != nil {
		t.Fatalf("Recover under query load: %v", err)
	}
	close(stop)
	wg.Wait()
	if s2.def.Eng.Epoch() != 8 {
		t.Fatalf("recovered epoch = %d, want 8", s2.def.Eng.Epoch())
	}
}

// TestWALFailureSheds503: a broken log (latched fsync failure) turns
// mutations into 503s with Retry-After while searches keep serving.
func TestWALFailureSheds503(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, Config{})
	if rec := postJSON(t, s, "/v1/corpus", beaconBatch(1, 2)); rec.Code != http.StatusOK {
		t.Fatalf("healthy mutation: %d", rec.Code)
	}

	restore := wal.SetFaultHook(func(op string) error {
		if op == wal.OpAppendSync {
			return fmt.Errorf("injected fsync failure")
		}
		return nil
	})
	rec := postJSON(t, s, "/v1/corpus", beaconBatch(2, 2))
	restore()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mutation with failing wal = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("wal-failure 503 carries no Retry-After")
	}
	if s.def.Eng.Epoch() != 1 {
		t.Errorf("failed append moved the epoch to %d", s.def.Eng.Epoch())
	}
	// The log is latched broken: later mutations shed too, reads fine.
	if rec := postJSON(t, s, "/v1/corpus", beaconBatch(2, 2)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mutation on broken wal = %d, want 503", rec.Code)
	}
	if rec := get(t, s, "/v1/search?x=40&y=40&K=40&k=8&keywords=durable-beacon"); rec.Code != http.StatusOK {
		t.Fatalf("search with broken wal = %d", rec.Code)
	}
	if s.def.WALState() != "broken" {
		t.Errorf("walState = %q, want broken", s.def.WALState())
	}
}

// TestDurabilityMetricsExposed: the satellite-3 metric names appear on
// /metrics with recovery values filled in.
func TestDurabilityMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	s1, _ := durableServer(t, dir, Config{})
	for gen := 1; gen <= 3; gen++ {
		if rec := postJSON(t, s1, "/v1/corpus", beaconBatch(gen, 2)); rec.Code != http.StatusOK {
			t.Fatalf("gen %d: %d", gen, rec.Code)
		}
	}
	s2, _ := durableServer(t, dir, Config{})
	body := get(t, s2, "/metrics").Body.String()
	for _, want := range []string{
		"propserve_wal_appends_total 0",
		"propserve_wal_fsyncs_total",
		"propserve_wal_errors_total 0",
		"propserve_wal_replayed_records 3",
		"propserve_wal_recovery_seconds",
		"propserve_corpus_recovered_epoch 3",
		"propserve_ready 1",
		"propserve_wal_records 3",
		"propserve_wal_torn_drops_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestOpenedCorpusShedsWritesUntilRecovered: a durable named corpus is
// registered not ready, so between open and recover a write — which
// could not be logged yet — gets 503 with Retry-After, while a search
// is served. After recovery the write is accepted and logged.
func TestOpenedCorpusShedsWritesUntilRecovered(t *testing.T) {
	dir := t.TempDir()
	s := testServerCfg(t, Config{EnableMutation: true, CorporaDir: dir})
	oc, err := s.openCorpus("late", filepath.Join(dir, "late"),
		func() (*dataset.Dataset, error) { return durTestData(t, 4, 200), nil }, engineOptions(s.cfg))
	if err != nil {
		t.Fatalf("openCorpus: %v", err)
	}
	t.Cleanup(func() { oc.log.Close() })

	rec := postJSON(t, s, "/v1/corpora/late/corpus", beaconBatch(1, 2))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write before recovery = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 before recovery carries no Retry-After")
	}
	if rec = get(t, s, "/v1/corpora/late/search?x=40&y=40&K=40&k=8"); rec.Code != http.StatusOK {
		t.Fatalf("search before recovery = %d, want 200: %s", rec.Code, rec.Body.String())
	}

	if err := s.recoverCorpus(context.Background(), oc); err != nil {
		t.Fatalf("recoverCorpus: %v", err)
	}
	if rec = postJSON(t, s, "/v1/corpora/late/corpus", beaconBatch(1, 2)); rec.Code != http.StatusOK {
		t.Fatalf("write after recovery = %d: %s", rec.Code, rec.Body.String())
	}
	if st := oc.log.Stats(); st.Appends != 1 || st.LastEpoch != 1 {
		t.Errorf("wal after one write: %d appends, last epoch %d; want 1 and 1", st.Appends, st.LastEpoch)
	}
}

// TestReadyzWaitsForEveryBootCorpus: main's boot opens the default
// corpus and every corpus under -corpora-dir before it replays any, so
// from the moment the listener serves, /readyz is 503 and names both
// until both have replayed.
func TestReadyzWaitsForEveryBootCorpus(t *testing.T) {
	corporaDir := t.TempDir()
	cfg := Config{EnableMutation: true, CorporaDir: corporaDir, Logf: t.Logf}
	s1 := testServerCfg(t, cfg)
	if rec := postJSON(t, s1, "/v1/corpora", map[string]any{"name": "scanme", "places": 150, "seed": 3}); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postJSON(t, s1, "/v1/corpora/scanme/corpus", beaconBatch(1, 2)); rec.Code != http.StatusOK {
		t.Fatalf("mutation = %d: %s", rec.Code, rec.Body.String())
	}
	s1.closeWALs()

	// -data: a small corpus file, so the default needs no demo corpus.
	data := filepath.Join(t.TempDir(), "db.gob")
	f, err := os.Create(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := durTestData(t, 9, 300).Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := newServer(cfg)
	bc := bootConfig{cfg: cfg, data: data, walDir: t.TempDir(), walRequired: true}
	served := false
	err = s2.boot(context.Background(), bc, func() {
		served = true
		rec := get(t, s2, "/readyz")
		var body struct {
			Status  string   `json:"status"`
			Corpora []string `json:"corpora"`
		}
		json.Unmarshal(rec.Body.Bytes(), &body)
		if rec.Code != http.StatusServiceUnavailable || body.Status != "recovering" ||
			strings.Join(body.Corpora, ",") != "default,scanme" {
			t.Errorf("/readyz while serving before replay = %d %s, want 503 recovering [default scanme]",
				rec.Code, rec.Body.String())
		}
	})
	t.Cleanup(s2.closeWALs)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if !served {
		t.Fatal("boot never called serving")
	}
	if rec := get(t, s2, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after boot = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	tn, ok := s2.reg.Get("scanme")
	if !ok || tn.Eng.Epoch() != 1 || !tn.Ready() {
		t.Fatalf("scanme after boot: registered %v, want epoch 1 and ready", ok)
	}
	if got := s2.def.Eng.Stats().Places; got != 300 {
		t.Errorf("default corpus has %d places, want the 300 of -data", got)
	}
}
