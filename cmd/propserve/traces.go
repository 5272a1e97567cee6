package main

// Tail-based trace retention and the trace API.
//
// Every search/explain/batch/mutation request runs under a hierarchical
// telemetry.Trace; whether the finished trace is kept is decided at the
// request's exit (see lifecycle.go), when the interesting facts —
// latency, status, shed, degradation — are known. Head sampling would
// throw away exactly the
// traces worth keeping, so retention is: slow/error/shed/degraded
// always, a -trace-sample probabilistic remainder for the healthy fast
// majority. Retained traces land in the tenant's tracestore ring,
// become the SLO tracker's quantile exemplars, and are served by
// GET /v1/traces (+ /{id}); -trace-export mirrors them as JSONL.

import (
	"context"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/tracestore"
)

// startTrace begins the request's trace: a caller-supplied W3C
// traceparent is adopted (the request joins the caller's distributed
// trace), the egress traceparent — this server's trace and span ID — is
// echoed on the response, and the trace is planted in the returned
// context for the pipeline stages.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) (*telemetry.Trace, context.Context) {
	tr := telemetry.NewTrace()
	if tid, pid, ok := telemetry.ParseTraceParent(r.Header.Get(telemetry.TraceParentHeader)); ok {
		tr.SetRemote(tid, pid)
	}
	w.Header().Set(telemetry.TraceParentHeader, tr.TraceParent())
	return tr, telemetry.WithTrace(r.Context(), tr)
}

// finishTrace makes the tail-sampling decision for one finished request
// of duration d and, when the trace is retained, stores it in the
// tenant's ring, notes it as an SLO exemplar (tracked requests only),
// mirrors it to the -trace-export stream and records its ID in rq — the
// trace_id of the request's access-log and slow-query lines (a batch
// element's record is its own, so the batch's access line names no
// element's trace).
func (s *Server) finishTrace(rq *request, d time.Duration) {
	tn, tr := rq.tn, rq.tr
	if tn.Traces == nil {
		return
	}
	reason := s.traceReason(tn, rq.class, rq.status, d, rq.degraded)
	if reason == "" {
		return
	}
	if reason == "sampled" {
		s.tel.tracesSampled.Inc()
	}
	id := tr.ID()
	st := &tracestore.Trace{
		ID:        id,
		RequestID: rq.id,
		Corpus:    tn.Name,
		Endpoint:  rq.endpoint,
		Status:    rq.status,
		Reason:    reason,
		Cache:     rq.cache,
		Epoch:     rq.epoch,
		Remote:    tr.RemoteParent(),
		Start:     rq.start,
		Duration:  d,
		Spans:     tr.Spans(),
	}
	tn.Traces.Add(st)
	if rq.tracked {
		tn.SLO.NoteExemplar(rq.class, d, id)
	}
	rq.traceID = id
	if s.cfg.TraceExport != nil {
		s.writeLine(s.cfg.TraceExport, traceJSON(st))
	}
}

// traceReason decides retention: the tail rules always keep the traces
// an operator will be asked about (shed, errored, degraded, served on a
// durability-compromised tenant, or slower than the class objective /
// slow-query threshold); everything else is kept with -trace-sample
// probability. "" means drop.
func (s *Server) traceReason(tn *registry.Tenant, class string, status int, d time.Duration, degraded bool) string {
	switch {
	case status == http.StatusServiceUnavailable:
		return "shed"
	case status >= 500:
		return "error"
	case degraded:
		return "degraded"
	}
	if ws := tn.WALState(); ws == "broken" || ws == "degraded" {
		return "wal"
	}
	slow := tn.SLO.Objective(class).Threshold
	if slow <= 0 || (s.cfg.SlowQuery > 0 && s.cfg.SlowQuery < slow) {
		slow = s.cfg.SlowQuery
	}
	if slow > 0 && d > slow {
		return "slow"
	}
	if p := s.cfg.TraceSample; p > 0 && rand.Float64() < p {
		return "sampled"
	}
	return ""
}

// serverTiming renders the Server-Timing header value: the app total
// first (the SLO and load tests key on the leading entry), then the
// per-stage breakdown from the span tree — retrieve, select
// (step2_select), build (the cold response build; absent when the answer
// was memoised) and render (encode) — so clients see where the time went
// without fetching the trace.
func serverTiming(total time.Duration, tr *telemetry.Trace) string {
	b := make([]byte, 0, 96)
	entry := func(name string, d time.Duration) {
		b = append(append(b, name...), ";dur="...)
		b = strconv.AppendFloat(b, float64(d.Nanoseconds())/1e6, 'f', 4, 64)
	}
	entry("app", total)
	var buf [12]telemetry.StageTotal
	stages := tr.StageTotals(buf[:0])
	for _, e := range [...]struct{ entry, stage string }{
		{", retrieve", telemetry.StageRetrieve},
		{", select", telemetry.StageSelect},
		{", build", telemetry.StageBuild},
		{", render", telemetry.StageEncode},
	} {
		for _, st := range stages {
			if st.Stage == e.stage {
				entry(e.entry, st.Dur)
			}
		}
	}
	return string(b)
}

// traceJSON renders one retained trace as the /v1/traces/{id} payload:
// identity and outcome up top, the span tree as a flat parent-linked
// list sorted by start offset (span 0 is the request root).
func traceJSON(t *tracestore.Trace) map[string]any {
	spans := make([]map[string]any, 0, len(t.Spans))
	for _, sp := range t.Spans {
		m := map[string]any{
			"id":          sp.ID,
			"parent":      sp.Parent,
			"stage":       sp.Stage,
			"start_ms":    round3(sp.Start.Seconds() * 1e3),
			"duration_ms": round3(sp.Dur.Seconds() * 1e3),
		}
		if len(sp.Attrs) > 0 {
			attrs := make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			m["attrs"] = attrs
		}
		spans = append(spans, m)
	}
	out := map[string]any{
		"trace_id":     t.ID,
		"request_id":   t.RequestID,
		"corpus":       t.Corpus,
		"endpoint":     t.Endpoint,
		"status":       t.Status,
		"reason":       t.Reason,
		"corpus_epoch": t.Epoch,
		"time":         t.Start.UTC().Format(time.RFC3339Nano),
		"duration_ms":  round3(t.Duration.Seconds() * 1e3),
		"spans":        spans,
	}
	if t.Cache != "" {
		out["cache"] = t.Cache
	}
	if t.Remote != "" {
		out["remote_parent"] = t.Remote
	}
	return out
}

// traceSummaryJSON is one GET /v1/traces list row: everything but the
// span tree.
func traceSummaryJSON(t *tracestore.Trace) map[string]any {
	out := map[string]any{
		"trace_id":    t.ID,
		"request_id":  t.RequestID,
		"corpus":      t.Corpus,
		"endpoint":    t.Endpoint,
		"status":      t.Status,
		"reason":      t.Reason,
		"time":        t.Start.UTC().Format(time.RFC3339Nano),
		"duration_ms": round3(t.Duration.Seconds() * 1e3),
		"spans":       len(t.Spans),
	}
	if t.Cache != "" {
		out["cache"] = t.Cache
	}
	return out
}

// handleTraces serves GET /v1/traces: retained traces across every
// corpus (or one, with ?corpus=), filtered by ?status=, ?reason= and
// ?min_duration_ms=, newest first, capped by ?limit= (default 50).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DisableTraces {
		s.writeError(w, http.StatusForbidden, "trace retention disabled: start the server without -traces=false")
		return
	}
	q := r.URL.Query()
	var f tracestore.Filter
	if v := q.Get("status"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 100 || n > 599 {
			s.writeError(w, http.StatusBadRequest, "bad status %q: want an HTTP status code", v)
			return
		}
		f.Status = n
	}
	f.Reason = q.Get("reason")
	if v := q.Get("min_duration_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			s.writeError(w, http.StatusBadRequest, "bad min_duration_ms %q", v)
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			s.writeError(w, http.StatusBadRequest, "bad limit %q: want 1..1000", v)
			return
		}
		limit = n
	}
	f.Limit = limit

	var tenants []*registry.Tenant
	if corpus := q.Get("corpus"); corpus != "" {
		tn, ok := s.reg.Get(corpus)
		if !ok {
			s.writeError(w, http.StatusNotFound, "unknown corpus %q", corpus)
			return
		}
		tenants = []*registry.Tenant{tn}
	} else {
		tenants = s.reg.All()
	}
	var all []*tracestore.Trace
	for _, tn := range tenants {
		all = append(all, tn.Traces.List(f)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start.After(all[j].Start) })
	if len(all) > limit {
		all = all[:limit]
	}
	rows := make([]map[string]any, 0, len(all))
	for _, t := range all {
		rows = append(rows, traceSummaryJSON(t))
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(rows),
		"traces": rows,
	})
}

// handleTraceGet serves GET /v1/traces/{id}: the full span tree of one
// retained trace, searched across every tenant's ring (trace IDs are
// process-unique random 128-bit values, so cross-tenant collision is
// not a practical concern).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DisableTraces {
		s.writeError(w, http.StatusForbidden, "trace retention disabled: start the server without -traces=false")
		return
	}
	id := r.PathValue("id")
	for _, tn := range s.reg.All() {
		if t, ok := tn.Traces.Get(id); ok {
			s.writeJSON(w, http.StatusOK, traceJSON(t))
			return
		}
	}
	s.writeError(w, http.StatusNotFound, "unknown trace %q (evicted, unsampled, or never existed)", id)
}

// registerTraceMetrics exposes the retention counters, summed across
// tenants at scrape time (zero when tracing is disabled — the nil
// stores report empty stats).
func (s *Server) registerTraceMetrics() {
	reg := s.tel.reg
	sum := func(field func(tracestore.Stats) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, tn := range s.reg.All() {
				n += field(tn.Traces.Stats())
			}
			return n
		}
	}
	reg.CounterFunc("propserve_traces_retained_total",
		"Traces retained by the tail sampler, across all corpora.",
		sum(func(st tracestore.Stats) uint64 { return st.Retained }))
	reg.CounterFunc("propserve_traces_dropped_total",
		"Retained traces later evicted by the ring's count or byte bound.",
		sum(func(st tracestore.Stats) uint64 { return st.Dropped }))
}
