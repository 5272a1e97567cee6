package resilience

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecoverConvertsPanicTo500(t *testing.T) {
	var logged string
	h := NewRecoverer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("injected fault")
	}), func(format string, args ...any) { logged = fmt.Sprintf(format, args...) })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal server error") {
		t.Errorf("body = %q", rec.Body.String())
	}
	if !strings.Contains(logged, "injected fault") || !strings.Contains(logged, "middleware_test.go") {
		t.Errorf("log missing panic value or stack: %q", logged)
	}
}

func TestRecoverPassesThroughNormalResponses(t *testing.T) {
	h := NewRecoverer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", rec.Code)
	}
}

func TestRecoverRepanicsAbortHandler(t *testing.T) {
	h := NewRecoverer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), nil)
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("http.ErrAbortHandler was swallowed")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	t.Error("expected re-panic")
}

// TestRecovererCountsPanics: the panic counter advances once per
// recovered panic and is untouched by clean requests; ErrAbortHandler
// re-panics without being counted.
func TestRecovererCountsPanics(t *testing.T) {
	calls := 0
	rc := NewRecoverer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls++
		if calls <= 2 {
			panic(fmt.Sprintf("fault %d", calls))
		}
		w.WriteHeader(http.StatusOK)
	}), func(string, ...any) {})

	for i := 0; i < 3; i++ {
		rc.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	}
	if got := rc.Panics(); got != 2 {
		t.Errorf("Panics() = %d, want 2", got)
	}

	abort := NewRecoverer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), nil)
	func() {
		defer func() { recover() }()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	}()
	if abort.Panics() != 0 {
		t.Errorf("ErrAbortHandler counted as a recovered panic")
	}
}

func TestRemaining(t *testing.T) {
	if _, ok := Remaining(context.Background()); ok {
		t.Error("background context reported a deadline")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d, ok := Remaining(ctx)
	if !ok || d <= 0 || d > time.Minute {
		t.Errorf("Remaining = %v, %v", d, ok)
	}
}
