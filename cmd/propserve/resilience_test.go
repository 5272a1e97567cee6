package main

// Fault-injection tests for the serving path: they use the cancellation
// checkpoints' fault hook (core.SetCheckpointHook) to stall, panic, or
// observe requests mid-computation, exercising client disconnects,
// deadline overruns, load shedding, panic recovery, and graceful
// shutdown. The hook is process-global, so none of these tests run in
// parallel.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSearchClientDisconnect: a request whose client already hung up must
// be abandoned inside the compute path (observed at a cancellation
// checkpoint) and reported as 503, not computed to completion.
func TestSearchClientDisconnect(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var stages []string
	restore := core.SetCheckpointHook(func(stage string) { stages = append(stages, stage) })
	defer restore()

	req := httptest.NewRequest(http.MethodGet, "/v1/search?K=60&k=5", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "cancelled") {
		t.Errorf("body = %s", rec.Body.String())
	}
	// The pipeline must have stopped at its first checkpoint: no further
	// scoring stages may have run.
	if len(stages) != 1 || stages[0] != "scores:start" {
		t.Errorf("checkpoints hit after disconnect: %v, want [scores:start]", stages)
	}
}

// TestSearchDeadlineExceeded: when the per-request budget expires
// mid-scoring, the request fails with 504 within one checkpoint interval.
func TestSearchDeadlineExceeded(t *testing.T) {
	s := testServerCfg(t, Config{QueryTimeout: time.Millisecond})
	restore := core.SetCheckpointHook(func(string) { time.Sleep(5 * time.Millisecond) })
	defer restore()

	rec := get(t, s, "/v1/search?K=60&k=5")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Errorf("body = %s", rec.Body.String())
	}
}

// TestShedUnderLoad saturates a 1-slot, 1-waiter gate and requires the
// third request to be shed immediately with 503 + Retry-After, while the
// in-flight and queued requests both complete once unblocked.
func TestShedUnderLoad(t *testing.T) {
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
	<-entered // request 1 holds the only slot, parked inside scoring

	r2 := make(chan *httptest.ResponseRecorder, 1)
	go func() { r2 <- get(t, s, "/v1/search?K=60&k=5") }()
	deadline := time.Now().Add(5 * time.Second)
	for s.def.Gate.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request 2 never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: request 3 must shed without waiting.
	rec := get(t, s, "/v1/search?K=60&k=5")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After header")
	}

	close(release)
	for i, ch := range []chan *httptest.ResponseRecorder{r1, r2} {
		select {
		case rec := <-ch:
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status = %d: %s", i+1, rec.Code, rec.Body.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never completed", i+1)
		}
	}
	if s.def.Gate.InFlight() != 0 || s.def.Gate.Queued() != 0 {
		t.Errorf("gate not drained: inflight %d queued %d", s.def.Gate.InFlight(), s.def.Gate.Queued())
	}
}

// TestPanicRecovery injects a panic into the compute path: the request
// must yield a 500, the admission slot must be released, and the server
// must keep serving.
func TestPanicRecovery(t *testing.T) {
	s := testServerCfg(t, Config{MaxInFlight: 1})
	var fired atomic.Bool
	restore := core.SetCheckpointHook(func(string) {
		if fired.CompareAndSwap(false, true) {
			panic("injected compute fault")
		}
	})

	rec := get(t, s, "/v1/search?K=60&k=5")
	restore()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "internal server error") {
		t.Errorf("body = %s", rec.Body.String())
	}
	if s.def.Gate.InFlight() != 0 {
		t.Fatalf("panic leaked an admission slot: inflight = %d", s.def.Gate.InFlight())
	}

	// The process survived; with MaxInFlight=1 a healthy follow-up request
	// also proves the slot was returned.
	if rec := get(t, s, "/v1/search?K=60&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestGracefulShutdown starts a real http.Server, parks a request inside
// the scoring path, begins Shutdown, and requires the in-flight request to
// complete with 200 while Shutdown returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	s := testServer(t)
	srv := &http.Server{Handler: s}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := core.SetCheckpointHook(func(string) {
		once.Do(func() { close(entered) })
		<-release
	})
	defer restore()

	result := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/search?K=60&k=5")
		if err != nil {
			result <- err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			result <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
			return
		}
		result <- nil
	}()
	<-entered // the request is inside scoring

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Let Shutdown stop the listener, then unblock the in-flight request.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if err := <-result; err != nil {
		t.Fatalf("in-flight request during shutdown: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("serve returned %v, want ErrServerClosed", err)
	}
}

// TestErrorStatusTaxonomy pins the client/server/overload status mapping:
// validation problems are 400, internal faults 500, cancellations 503,
// deadline overruns 504.
func TestErrorStatusTaxonomy(t *testing.T) {
	s := testServer(t)

	// Client errors → 400.
	if rec := get(t, s, "/v1/search?k=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("validation: status = %d, want 400", rec.Code)
	}
	// exact on an instance beyond the brute-force guard is a client
	// request the server cannot honour → 400, not 500.
	if rec := get(t, s, "/v1/search?K=200&k=30&algo=exact"); rec.Code != http.StatusBadRequest {
		t.Errorf("exact too large: status = %d, want 400: %s", rec.Code, rec.Body.String())
	}

	// Internal fault → 500 (via injected panic).
	var fired atomic.Bool
	restore := core.SetCheckpointHook(func(string) {
		if fired.CompareAndSwap(false, true) {
			panic("taxonomy probe")
		}
	})
	rec := get(t, s, "/v1/search?K=60&k=5")
	restore()
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("internal: status = %d, want 500", rec.Code)
	}

	// Cancellation → 503.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/search?K=60&k=5", nil).WithContext(ctx)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled: status = %d, want 503", rec2.Code)
	}
}
