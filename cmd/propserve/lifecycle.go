package main

// The one request lifecycle shared by search, explain, batch elements and
// corpus writes. Every HTTP request owns one record, opened by
// Server.ServeHTTP inside the writer every route sees (the exchange);
// tenantFor and begin fill it in, and a batch element opens a literal of
// its own. A request passes the one admission step (admit) — queries
// through the one parse → clamp → admit → degrade step (parse) — and
// leaves through the one exit, which runs in two phases: respond before
// the first body byte, exit after the body (deferred, so error and
// panic exits take it too). The handlers only call the engine and write
// their bodies; the request counter, latency histogram and access-log
// line are written from the record once the handler returns.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// request is the record of one request from the mux to its exit: the
// facts the SLO sample, the retained trace, the access log, the request
// counters and the slow-query line are all taken from.
type request struct {
	s        *Server
	tn       *registry.Tenant
	tr       *telemetry.Trace
	w        http.ResponseWriter // nil for a batch element: its response is the batch's
	ctx      context.Context     // carries tr; after admit, the deadline budget too
	cancel   context.CancelFunc  // releases the deadline budget (set by admit)
	admitted bool                // holds an admission slot until exit (set by admit)
	start    time.Time           // ServeHTTP's instant; a batch element's own
	endpoint string
	id       string // X-Request-ID; a batch element carries its batch's
	class    string // SLO class: the sample, the slow threshold and the exemplar
	status   int    // 0 until respond: at the exit, a recovered panic (500)
	err      string // the error message, for a batch element's slot
	cache    string
	epoch    uint64
	traceID  string // the retained trace's ID; "" when the trace was dropped
	degraded bool
	tracked  bool                 // take an SLO sample and note the exemplar (all but explain)
	query    *engine.QueryRequest // the parsed query; nil for corpus writes
	report   any                  // an explain's introspection report, for the slow-query line
}

// exchange is the writer every route sees: the one status/bytes
// recorder of a request, holding the request's record.
type exchange struct {
	http.ResponseWriter
	rq     request
	status int // 0 until the first WriteHeader or Write
	bytes  int64
}

// WriteHeader implements http.ResponseWriter; the first status wins.
func (x *exchange) WriteHeader(code int) {
	if x.status == 0 {
		x.status = code
	}
	x.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (x *exchange) Write(b []byte) (int, error) {
	if x.status == 0 {
		x.status = http.StatusOK
	}
	n, err := x.ResponseWriter.Write(b)
	x.bytes += int64(n)
	return n, err
}

// recordOf returns the record of the request w answers: every route is
// reached through ServeHTTP, so w is its exchange.
func recordOf(w http.ResponseWriter) *request { return &w.(*exchange).rq }

// begin resolves the tenant and fills in the record of a request that
// owns its response, starting its trace. On an unknown corpus it has
// written the 404 and returns false.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, endpoint, class string) (*request, bool) {
	if _, ok := s.tenantFor(w, r); !ok {
		return nil, false
	}
	rq := recordOf(w)
	rq.s, rq.w, rq.endpoint, rq.class, rq.tracked = s, w, endpoint, class, true
	rq.tr, rq.ctx = s.startTrace(w, r)
	return rq, true
}

// respond is the first phase of the exit, run once before the first body
// byte: it fixes the status and, for a tracked request, stores the
// latency and outcome into its SLO class. The sample precedes the body so
// that, when the request owns its writer, the exact recorded latency can
// ride on the response as a Server-Timing header (load generators compare
// client-observed latencies against the server's own samples without
// network skew), followed by the per-stage breakdown from the span tree
// (see serverTiming). Later calls are no-ops.
func (rq *request) respond(status int) {
	if rq.status != 0 {
		return
	}
	rq.status = status
	if !rq.tracked {
		return
	}
	d := time.Since(rq.start)
	if rq.w != nil && rq.tn.SLO != nil {
		rq.w.Header().Set("Server-Timing", serverTiming(d, rq.tr))
	}
	rq.tn.SLO.Record(rq.class, d, slo.OutcomeForStatus(status))
}

// fail ends the request with an error: respond, then the error body — or,
// for a batch element, the message kept for its slot.
func (rq *request) fail(status int, format string, args ...any) {
	rq.respond(status)
	rq.err = fmt.Sprintf(format, args...)
	if rq.w != nil {
		rq.s.writeError(rq.w, status, "%s", rq.err)
	}
}

// retryLater attaches the Retry-After hint to a 503 the client may retry.
func (rq *request) retryLater() {
	if rq.w != nil {
		rq.w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(rq.s.cfg.RetryAfter.Seconds()))))
	}
}

// exit is the second phase, deferred by every handler: it releases the
// admission slot and the deadline budget, takes the SLO sample if no
// response began (a recovered panic, which the recovery answers with
// 500), computes the request's one duration, makes the tail-retention
// decision and writes the slow-query line from it, and flushes the
// spans into propserve_stage_seconds.
func (rq *request) exit() {
	if rq.admitted {
		rq.admitted = false
		rq.tn.Gate.Release()
	}
	if rq.cancel != nil {
		rq.cancel()
	}
	rq.respond(http.StatusInternalServerError)
	d := time.Since(rq.start)
	s := rq.s
	s.finishTrace(rq, d)
	if rq.query != nil && rq.status == http.StatusOK {
		s.maybeLogSlow(rq, d)
	}
	s.flushSpans(rq.tr)
}

// admit is the one admission step. The deadline budget covers admission
// wait plus compute, and is bound to the client connection: a hang-up
// cancels the request context and with it every checkpointed loop
// downstream. On refusal it has answered the request and returns false.
func (rq *request) admit() bool {
	s := rq.s
	rq.ctx, rq.cancel = context.WithTimeout(rq.ctx, s.cfg.QueryTimeout)
	waitStart := time.Now()
	endWait := rq.tr.StartSpan(telemetry.StageAdmission)
	err := rq.tn.Gate.Admit(rq.ctx)
	endWait()
	s.tel.queueWait.Observe(time.Since(waitStart))
	if err != nil {
		status := statusFor(err)
		if status == http.StatusServiceUnavailable {
			rq.retryLater()
		}
		rq.fail(status, "admission: %v", err)
		return false
	}
	rq.admitted = true
	return true
}

// parse is the one parse → clamp → admit → degrade step of a query:
// decode builds the request (from URL values, or a JSON element over
// NewRequest), Normalize validates it and clamps K, and the request is
// admitted. Every adjustment is reported in the returned degradation and
// propserve_degraded_total, never applied silently. On failure it has
// answered the request and returns false.
func (rq *request) parse(decode func(*engine.Engine) (*engine.QueryRequest, error)) (*engine.QueryRequest, degradation, bool) {
	s := rq.s
	var deg degradation
	endParse := rq.tr.StartSpan(telemetry.StageParse)
	req, err := decode(rq.tn.Eng)
	if err == nil {
		_, err = req.Normalize()
	}
	endParse()
	if err != nil {
		// A URL request names its bad parameter, a batch element its query.
		what := "bad parameter"
		if rq.w == nil {
			what = "bad query"
		}
		rq.fail(http.StatusBadRequest, "%s: %v", what, err)
		return nil, deg, false
	}
	rq.query = req

	// Graceful degradation, part 1: K is the unit of quadratic work, so
	// Normalize clamps it to the engine's ceiling; report the clamp.
	if from := req.ClampedFrom(); from > 0 {
		deg.KClampedFrom = from
		s.tel.degraded.With("k_clamp").Inc()
		rq.degraded = true
	}
	if !rq.admit() {
		return nil, deg, false
	}

	// Graceful degradation, part 2: if queueing consumed most of the
	// budget, downshift the exact spatial method to the squared grid
	// (Section 7.1.1) rather than miss the deadline — but only when the
	// grid is actually the faster path for this instance size: below the
	// measured crossover the approximation costs more than exact, so the
	// downshift would trade accuracy for *worse* latency. Either way the
	// decision and its evidence (remaining budget, instance size) are
	// reported. An explain is exempt: it exists to show what the requested
	// configuration does, not a degraded stand-in.
	if rq.endpoint == "/v1/explain" || req.SpatialMethod() != core.SpatialExact {
		return req, deg, true
	}
	if remaining, ok := resilience.Remaining(rq.ctx); ok && remaining < s.cfg.DegradeBudget {
		if grid.SquaredLikelyFaster(req.K) {
			req.Spatial = "squared"
			if _, err := req.Normalize(); err != nil { // re-resolve; cannot fail on a valid request
				rq.fail(http.StatusInternalServerError, "downshift: %v", err)
				return nil, deg, false
			}
			deg.Spatial = "exact→squared-grid (low budget)"
			s.tel.degraded.With("spatial_downshift").Inc()
			rq.degraded = true
		} else {
			// The request stays exact and undegraded; the skipped
			// decision is still surfaced so a budget-starved small
			// query is diagnosable.
			deg.Spatial = fmt.Sprintf("downshift skipped (K=%d below grid crossover)", req.K)
			s.tel.degraded.With("spatial_downshift_skipped").Inc()
		}
		ms := round3(remaining.Seconds() * 1e3)
		deg.RemainingBudgetMS = &ms
	}
	return req, deg, true
}

// degradation is the diagnostics.degraded report of one query. Its
// fields are declared in sorted key order, the order encoding/json gave
// the map this replaces.
type degradation struct {
	KClampedFrom      int      `json:"K_clamped_from,omitempty"`
	RemainingBudgetMS *float64 `json:"remaining_budget_ms,omitempty"`
	Spatial           string   `json:"spatial,omitempty"`
}

// encode returns the report as JSON, or nil when nothing was degraded.
func (d degradation) encode() json.RawMessage {
	if d == (degradation{}) {
		return nil
	}
	b, err := json.Marshal(d)
	if err != nil { // unreachable: an int, a finite float and a string
		panic(fmt.Sprintf("propserve: encode degradation: %v", err))
	}
	return b
}
