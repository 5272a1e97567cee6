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
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
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

// durableServer builds a server over walDir the way main does: snapshot
// (if any) + wal.Open + engine at the recovered epoch + Recover.
func durableServer(t *testing.T, walDir string, cfg Config) (*Server, *wal.Log) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	cfg.EnableMutation = true
	cfg = cfg.withDefaults()

	d, epoch, ok := loadNewestSnapshot(walDir, cfg.Logf)
	if !ok {
		d, epoch = durTestData(t, 9, 300), 0
	}
	wlog, records, err := wal.Open(walDir, cfg.WAL)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { wlog.Close() })

	opts := engineOptions(cfg)
	opts.InitialEpoch = epoch
	s := NewServerWithEngine(engine.New(d, opts), cfg)
	s.BeginRecovery()
	if err := s.Recover(context.Background(), wlog, records); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return s, wlog
}

// corpusState flattens the published corpus into a comparable map.
func corpusState(s *Server) map[string]string {
	d, _ := s.eng.Snapshot()
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
	if s1.eng.Epoch() != 5 {
		t.Fatalf("epoch after 5 mutations = %d", s1.eng.Epoch())
	}

	// "Restart": a second server recovers from the same directory.
	s2, _ := durableServer(t, dir, Config{})
	if got := s2.eng.Epoch(); got != 5 {
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
	if s2.eng.Epoch() != 6 {
		t.Errorf("post-recovery epoch = %d, want 6", s2.eng.Epoch())
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
	s1.compactWAL()
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
	if s2.eng.Epoch() != 6 {
		t.Fatalf("recovered epoch = %d, want 6", s2.eng.Epoch())
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

// TestReadyzLifecycle: /readyz answers 503 "recovering" between
// BeginRecovery and FinishRecovery, 200 "ready" after; /healthz stays
// 200 throughout (liveness must not restart a recovering server).
func TestReadyzLifecycle(t *testing.T) {
	s := testServerCfg(t, Config{})
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d, want 200", rec.Code)
	}

	s.BeginRecovery()
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

	s.FinishRecovery(0, 0, 0)
	if rec = get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", rec.Code)
	}
}

// TestMutationsShedDuringRecovery: POST /v1/corpus answers 503 with
// Retry-After while not ready, and searches keep working.
func TestMutationsShedDuringRecovery(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})
	s.BeginRecovery()

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

// TestDegradedModeServesReadsShedsWrites: after DegradeWAL the server is
// ready, reads work, mutations answer 503 naming the degradation, and
// /v1/stats + /healthz expose the state.
func TestDegradedModeServesReadsShedsWrites(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true})
	s.BeginRecovery()
	s.DegradeWAL(fmt.Errorf("wal directory on a dead disk"))

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

// TestQueriesDuringReplay races searches against Recover: reads must
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

	// Second server: open by hand so Recover can be raced explicitly.
	cfg := Config{EnableMutation: true, Logf: t.Logf}
	cfg = cfg.withDefaults()
	d, epoch, ok := loadNewestSnapshot(dir, cfg.Logf)
	if !ok {
		d, epoch = durTestData(t, 9, 300), 0
	}
	wlog, records, err := wal.Open(dir, wal.Options{Logf: cfg.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	opts := engineOptions(cfg)
	opts.InitialEpoch = epoch
	s2 := NewServerWithEngine(engine.New(d, opts), cfg)
	s2.BeginRecovery()

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
	if err := s2.Recover(context.Background(), wlog, records); err != nil {
		t.Fatalf("Recover under query load: %v", err)
	}
	close(stop)
	wg.Wait()
	if s2.eng.Epoch() != 8 {
		t.Fatalf("recovered epoch = %d, want 8", s2.eng.Epoch())
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
	if s.eng.Epoch() != 1 {
		t.Errorf("failed append moved the epoch to %d", s.eng.Epoch())
	}
	// The log is latched broken: later mutations shed too, reads fine.
	if rec := postJSON(t, s, "/v1/corpus", beaconBatch(2, 2)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mutation on broken wal = %d, want 503", rec.Code)
	}
	if rec := get(t, s, "/v1/search?x=40&y=40&K=40&k=8&keywords=durable-beacon"); rec.Code != http.StatusOK {
		t.Fatalf("search with broken wal = %d", rec.Code)
	}
	if s.walState() != "broken" {
		t.Errorf("walState = %q, want broken", s.walState())
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
