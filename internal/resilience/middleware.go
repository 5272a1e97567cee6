package resilience

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"sync/atomic"
)

// A Recoverer wraps a handler so that a panicking request yields a 500
// JSON error and a logged stack trace instead of killing the
// connection-serving goroutine's request (net/http would otherwise close
// the connection with no response, and an unprotected panic in user
// middleware would crash the process). Every recovered panic is counted;
// servers expose the count under /stats and as a metric.
// http.ErrAbortHandler is re-panicked, preserving net/http's idiom for
// deliberately aborting a response. If the handler already wrote a
// response before panicking, the 500 status cannot be applied; the stack
// is still logged and the panic still counted.
type Recoverer struct {
	next   http.Handler
	logf   func(format string, args ...any)
	panics atomic.Uint64
}

// NewRecoverer wraps next; logf (may be nil) receives the panic reports.
func NewRecoverer(next http.Handler, logf func(format string, args ...any)) *Recoverer {
	return &Recoverer{next: next, logf: logf}
}

// Panics returns the number of panics recovered so far.
func (rc *Recoverer) Panics() uint64 { return rc.panics.Load() }

// ServeHTTP implements http.Handler.
func (rc *Recoverer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		rc.panics.Add(1)
		if rc.logf != nil {
			rc.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":"internal server error"}`)
	}()
	rc.next.ServeHTTP(w, r)
}
