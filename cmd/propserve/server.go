package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/jsonx"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/tracestore"
	"repro/internal/wal"
)

// Config carries the serving-path resilience and engine knobs. Zero
// values select the defaults noted on each field.
type Config struct {
	// QueryTimeout is the per-request deadline budget covering admission
	// wait, scoring and selection. Default 10s.
	QueryTimeout time.Duration
	// MaxInFlight bounds concurrent query computations (single searches
	// and batch elements alike). Default 2×GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot; beyond it requests are
	// shed with 503. Default MaxInFlight.
	MaxQueue int
	// QueueWait is the longest a request may wait for admission before it
	// is shed. Default 1s.
	QueueWait time.Duration
	// MaxK caps the retrieval size K: Step 1 is quadratic in K, so this is
	// the server's unit of work ceiling. Larger requests are clamped and
	// the clamp reported in diagnostics. Default 2000.
	MaxK int
	// CacheEntries bounds the engine's score-set LRU (a cached score set
	// holds ~92·K bytes, plus its answer memo). Default 128.
	CacheEntries int
	// MaxBatch caps the number of queries in one POST /v1/batch request.
	// Default 256.
	MaxBatch int
	// BatchWorkers bounds the per-batch worker pool; the admission gate
	// still bounds total compute across all requests. Default GOMAXPROCS.
	BatchWorkers int
	// DegradeBudget is the remaining-budget threshold below which the
	// exact spatial method is downshifted to the squared grid. Default
	// QueryTimeout/4.
	DegradeBudget time.Duration
	// RetryAfter is the Retry-After hint attached to 503 shed responses.
	// Default 1s.
	RetryAfter time.Duration
	// Logf receives panic reports from the recovery middleware and
	// response-encoding errors. Default log.Printf.
	Logf func(format string, args ...any)
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (see telemetry.AccessEntry), written from the request's
	// record after its handler returns. Nil disables access logging.
	AccessLog io.Writer
	// EnableExplain opens GET /v1/explain, which recomputes both pipeline
	// steps under an introspection collector and bypasses the score-set
	// cache. Off by default: an explain is strictly more expensive than
	// the query it explains, so the endpoint is an operator opt-in.
	EnableExplain bool
	// SlowQuery is the latency threshold above which a query emits one
	// JSON line with its full stage and explain breakdown to SlowQueryLog.
	// 0 disables slow-query logging.
	SlowQuery time.Duration
	// SlowQueryLog receives slow-query lines. Nil falls back to AccessLog's
	// writer, then to Logf. Every JSON-line writer (access, slow-query,
	// trace export) is serialised under one lock, so lines never
	// interleave, even on a shared writer.
	SlowQueryLog io.Writer
	// EnableMutation opens POST /v1/corpus, which applies upsert/delete
	// batches and publishes a new corpus epoch. Off by default: a mutable
	// corpus is an operator decision, not a client one.
	EnableMutation bool
	// MaxMutationBatch caps the operations (upserts + deletes) accepted in
	// one POST /v1/corpus request. Default 1024.
	MaxMutationBatch int
	// WALCompactRecords is the log length (in records) beyond which a
	// mutation triggers background snapshot compaction. Only meaningful
	// with a WAL attached. Default 1024.
	WALCompactRecords int
	// WAL is the log configuration of every durable corpus, the default
	// one and those under CorporaDir alike (-wal-sync,
	// -wal-sync-interval). An unset Logf is Config.Logf.
	WAL wal.Options
	// DisableSLO turns off the per-class SLO tracker: GET /v1/slo answers
	// 403 and the propserve_slo_* metrics vanish. The tracker costs a few
	// atomic operations per request, so it is on by default.
	DisableSLO bool
	// SLOHitP99 is the p99 latency threshold for the search_hit class
	// (cache-served queries). Default 10ms.
	SLOHitP99 time.Duration
	// SLOMissP99 is the p99 latency threshold for the search_miss class
	// (computed and coalesced queries, plus requests that never reached a
	// cache verdict). Default 250ms.
	SLOMissP99 time.Duration
	// SLOBatchP99 is the p99 latency threshold for individual batch
	// elements. Default 500ms.
	SLOBatchP99 time.Duration
	// SLOMutateP99 is the p99 latency threshold for corpus mutations.
	// Default 1s.
	SLOMutateP99 time.Duration
	// SLOAvailability is the success-ratio target shared by every class:
	// the fraction of requests that are neither 5xx errors nor shed must
	// stay above it. Default 0.999.
	SLOAvailability float64
	// CorporaDir, when set, makes corpora created through POST /v1/corpora
	// durable: each corpus logs to its own WAL under CorporaDir/<name> and
	// recovers from it on re-creation or restart. The default corpus keeps
	// its own -wal-dir; "" keeps created corpora volatile.
	CorporaDir string
	// DisableTraces turns off trace retention entirely: no per-tenant
	// ring is allocated, GET /v1/traces answers 403, and the request path
	// pays only nil checks. On by default — retention is tail-based, so
	// the steady-state cost is one probabilistic draw per request.
	DisableTraces bool
	// TraceSample is the probability that a fast, healthy request's trace
	// is retained. The tail rules (slow/error/shed/degraded) retain
	// regardless. 0 selects the default 0.01; negative disables
	// probabilistic retention, keeping only the tail.
	TraceSample float64
	// TraceBudget bounds each tenant's retained-trace ring in estimated
	// bytes. 0 selects tracestore.DefaultByteBudget (4 MiB).
	TraceBudget int
	// TraceExport, when non-nil, receives one JSON line per retained
	// trace — the same object GET /v1/traces/{id} serves.
	TraceExport io.Writer
}

func (c Config) withDefaults() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.MaxK <= 0 {
		c.MaxK = 2000
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.DegradeBudget <= 0 {
		c.DegradeBudget = c.QueryTimeout / 4
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxMutationBatch <= 0 {
		c.MaxMutationBatch = 1024
	}
	if c.WALCompactRecords <= 0 {
		c.WALCompactRecords = 1024
	}
	if c.SLOHitP99 <= 0 {
		c.SLOHitP99 = 10 * time.Millisecond
	}
	if c.SLOMissP99 <= 0 {
		c.SLOMissP99 = 250 * time.Millisecond
	}
	if c.SLOBatchP99 <= 0 {
		c.SLOBatchP99 = 500 * time.Millisecond
	}
	if c.SLOMutateP99 <= 0 {
		c.SLOMutateP99 = time.Second
	}
	if c.SLOAvailability <= 0 {
		c.SLOAvailability = 0.999
	}
	if c.TraceSample == 0 {
		c.TraceSample = 0.01
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.WAL.Logf == nil {
		c.WAL.Logf = c.Logf
	}
	return c
}

// serverMetrics bundles the Prometheus registry and the instruments the
// handlers mutate directly. Gate, panic and engine counters are
// registered as read-at-scrape functions over their sources of truth
// (resilience.Gate.Stats, resilience.Recoverer.Panics, engine.Stats) so
// there is no double bookkeeping; the un-labeled gate and engine
// families read the default corpus.
type serverMetrics struct {
	reg            *telemetry.Registry
	requests       *telemetry.CounterVec // propserve_requests_total{code}
	requestSeconds *slo.Sketch           // propserve_request_seconds
	stageSeconds   *telemetry.SketchVec  // propserve_stage_seconds{stage}
	queueWait      *slo.Sketch           // propserve_gate_queue_wait_seconds
	degraded       *telemetry.CounterVec // propserve_degraded_total{reason}
	batches        *telemetry.Counter    // propserve_batch_requests_total
	batchQueries   *telemetry.Counter    // propserve_batch_queries_total
	deprecated     *telemetry.CounterVec // propserve_deprecated_requests_total{path}
	slowQueries    *telemetry.Counter    // propserve_slow_queries_total
	mutations      *telemetry.Counter    // propserve_corpus_mutation_requests_total
	tracesSampled  *telemetry.Counter    // propserve_traces_sampled_total
	msjhPruned     *telemetry.Gauge      // propserve_msjh_pruned_ratio
	gridErr        *telemetry.Gauge      // propserve_grid_err_sampled
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("propserve_requests_total",
			"HTTP requests served, by status code.", "code"),
		// The latency histograms are slo sketches: 1µs to ≈ 69 s, so the
		// microsecond hit mode and the millisecond miss mode each get
		// their own buckets.
		requestSeconds: reg.Sketch("propserve_request_seconds",
			"End-to-end request latency in seconds."),
		stageSeconds: reg.SketchVec("propserve_stage_seconds",
			"Per-stage latency in seconds (parse, admission_wait, retrieve, step1_pcs, step1_pss, step2_select, build_response, encode, wal_replay).",
			"stage"),
		queueWait: reg.Sketch("propserve_gate_queue_wait_seconds",
			"Time spent waiting for admission at the gate, in seconds."),
		degraded: reg.CounterVec("propserve_degraded_total",
			"Graceful-degradation decisions applied, by reason.", "reason"),
		batches: reg.Counter("propserve_batch_requests_total",
			"POST /v1/batch requests accepted."),
		batchQueries: reg.Counter("propserve_batch_queries_total",
			"Individual queries carried by batch requests."),
		deprecated: reg.CounterVec("propserve_deprecated_requests_total",
			"Requests to the retired pre-/v1 routes, by path.", "path"),
		slowQueries: reg.Counter("propserve_slow_queries_total",
			"Queries whose end-to-end latency exceeded the slow-query threshold."),
		mutations: reg.Counter("propserve_corpus_mutation_requests_total",
			"POST /v1/corpus batches accepted by the handler."),
		tracesSampled: reg.Counter("propserve_traces_sampled_total",
			"Traces retained by the probabilistic sampler rather than a tail rule."),
		msjhPruned: reg.Gauge("propserve_msjh_pruned_ratio",
			"Fraction of candidate pairs the msJh engine skipped in the most recent explain run."),
		gridErr: reg.Gauge("propserve_grid_err_sampled",
			"Mean absolute grid-approximation error over sampled pairs in the most recent explain run."),
	}
	reg.GaugeFunc("propserve_gate_inflight",
		"Requests currently holding an admission slot.",
		func() float64 { return float64(s.def.Gate.InFlight()) })
	reg.GaugeFunc("propserve_gate_queued",
		"Requests currently waiting for an admission slot.",
		func() float64 { return float64(s.def.Gate.Queued()) })
	reg.GaugeFunc("propserve_gate_capacity",
		"Maximum concurrent in-flight requests.",
		func() float64 { return float64(s.def.Gate.Capacity()) })
	reg.CounterFunc("propserve_gate_admitted_total",
		"Requests admitted by the gate.",
		func() uint64 { return s.def.Gate.Stats().Admitted })
	reg.CounterFunc("propserve_gate_shed_total",
		"Requests shed immediately because the wait queue was full.",
		func() uint64 { return s.def.Gate.Stats().Shed })
	reg.CounterFunc("propserve_gate_queue_timeout_total",
		"Requests shed after waiting the maximum queue time.",
		func() uint64 { return s.def.Gate.Stats().QueueTimeouts })
	reg.CounterFunc("propserve_gate_cancelled_total",
		"Requests whose context terminated while queued.",
		func() uint64 { return s.def.Gate.Stats().Cancelled })
	reg.CounterFunc("propserve_panics_recovered_total",
		"Handler panics recovered by the resilience middleware.",
		func() uint64 { return s.rec.Panics() })
	reg.CounterFunc("propserve_engine_cache_hits_total",
		"Queries served a score set straight from the engine LRU.",
		func() uint64 { return s.def.Eng.Stats().Hits })
	reg.CounterFunc("propserve_engine_cache_misses_total",
		"Queries that computed (and cached) a score set.",
		func() uint64 { return s.def.Eng.Stats().Misses })
	reg.CounterFunc("propserve_engine_coalesced_total",
		"Queries that waited on an identical concurrent computation.",
		func() uint64 { return s.def.Eng.Stats().Coalesced })
	reg.CounterFunc("propserve_engine_cache_evictions_total",
		"Score sets evicted from the engine LRU.",
		func() uint64 { return s.def.Eng.Stats().Evictions })
	reg.CounterFunc("propserve_engine_builds_total",
		"Score-set builds started by the engine.",
		func() uint64 { return s.def.Eng.Stats().Builds })
	reg.CounterFunc("propserve_engine_build_errors_total",
		"Score-set builds that failed (failures are never cached).",
		func() uint64 { return s.def.Eng.Stats().BuildErrors })
	reg.CounterFunc("propserve_engine_explains_total",
		"Cache-bypassing /v1/explain evaluations.",
		func() uint64 { return s.def.Eng.Stats().Explains })
	reg.GaugeFunc("propserve_engine_cache_hit_ratio",
		"Engine LRU hit ratio over all lookups so far (0 before any lookup).",
		func() float64 { return s.def.Eng.Stats().HitRatio() })
	reg.GaugeFunc("propserve_engine_cache_entries",
		"Score sets currently resident in the engine LRU.",
		func() float64 { return float64(s.def.Eng.Stats().Entries) })
	reg.GaugeFunc("propserve_engine_table_bytes",
		"Combined footprint of the shared maximal grid tables.",
		func() float64 { return float64(s.def.Eng.Stats().TableBytes) })
	reg.GaugeFunc("propserve_engine_cache_bytes",
		"Score-set bytes of the entries resident in the engine LRU (answer memos excluded).",
		func() float64 { return float64(s.def.Eng.Stats().CacheBytes) })
	reg.GaugeFunc("propserve_corpus_epoch",
		"Currently published corpus epoch (0 until the first mutation).",
		func() float64 { return float64(s.def.Eng.Epoch()) })
	reg.GaugeFunc("propserve_corpus_places",
		"Places in the currently published corpus epoch.",
		func() float64 { return float64(s.def.Eng.Stats().Places) })
	reg.CounterFunc("propserve_corpus_mutations_total",
		"Mutation batches applied and published as new corpus epochs.",
		func() uint64 { return s.def.Eng.Stats().Mutations })
	reg.CounterFunc("propserve_corpus_swept_entries_total",
		"Score sets swept from the engine LRU by mutations that could change them (the rest are carried into the new epoch).",
		func() uint64 { return s.def.Eng.Stats().SweptEntries })
	return m
}

// Server serves proportional search over a registry of named corpora,
// each behind its own cross-query engine: grid tables are shared, but
// score-set LRUs, admission gates, SLO trackers and WALs are strictly
// per-corpus (see internal/registry). It is safe for concurrent use. The
// serving path is guarded end to end: panics become 500s, query compute
// sits behind a bounded per-tenant admission gate, and every query
// carries a deadline budget that the scoring and selection loops observe
// cooperatively. Every request is assigned an X-Request-ID and, via
// internal/telemetry, yields a per-stage span breakdown exposed in the
// search diagnostics and in the propserve_stage_seconds histogram on
// /metrics.
//
// Routes are corpus-scoped under /v1/corpora/{corpus}/... (search,
// explain, batch, corpus, slo), with the un-scoped /v1 routes kept as
// byte-compatible aliases onto the corpus named "default". The registry
// itself is administered through GET/POST /v1/corpora and DELETE
// /v1/corpora/{corpus}. The pre-versioning /search and /stats aliases
// are retired: they answer 410 Gone.
type Server struct {
	mux   *http.ServeMux
	cfg   Config
	rec   *resilience.Recoverer
	tel   *serverMetrics
	start time.Time
	// logMu serialises every JSON-line writer (access log, slow-query
	// log, -trace-export), so lines never interleave even when two of
	// them share one writer.
	logMu sync.Mutex

	// reg maps corpus names to tenants; def, set by openCorpus before
	// anything is served, is the one the un-scoped routes, /healthz and
	// the un-labeled metric families address.
	reg *registry.Registry
	def *registry.Tenant
}

// NewServer builds the handler tree over a volatile default corpus
// serving d, with the given configuration (zero values select
// defaults). The durable boot in main opens its corpora through
// Server.boot instead.
func NewServer(d *dataset.Dataset, cfg Config) *Server {
	s := newServer(cfg)
	// A volatile open of a fresh registry's default corpus cannot fail.
	s.openCorpus(registry.DefaultName, "",
		func() (*dataset.Dataset, error) { return d, nil }, engineOptions(s.cfg))
	return s
}

// engineOptions maps the serving configuration onto the engine knobs
// of every corpus.
func engineOptions(cfg Config) engine.Options {
	cfg = cfg.withDefaults()
	return engine.Options{
		MaxK:         cfg.MaxK,
		CacheEntries: cfg.CacheEntries,
	}
}

// newServer builds the handler tree and the metrics over an empty
// registry. It serves nothing until the default corpus is opened
// (openCorpus), which every caller does before the first request.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		mux:   http.NewServeMux(),
		cfg:   cfg,
		reg:   registry.New(),
		start: time.Now(),
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	// Corpus-scoped routes and their un-scoped aliases onto the default
	// corpus. The same handler serves both forms (tenantFor resolves the
	// {corpus} segment, absent means default), so the alias payloads are
	// byte-identical to their scoped counterparts.
	for _, rt := range []struct {
		method, name string
		handle       http.HandlerFunc
	}{
		{"GET", "search", s.handleSearch},
		{"GET", "explain", s.handleExplain},
		{"POST", "batch", s.handleBatch},
		{"POST", "corpus", s.handleCorpus},
		{"GET", "slo", s.handleSLO},
	} {
		s.mux.HandleFunc(rt.method+" /v1/"+rt.name, rt.handle)
		s.mux.HandleFunc(rt.method+" /v1/corpora/{corpus}/"+rt.name, rt.handle)
	}
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	// Retained traces: the list spans every corpus (or one via ?corpus=),
	// the by-ID lookup searches all rings — trace IDs are random 128-bit
	// values, so the ID alone identifies the request.
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	// Registry administration.
	s.mux.HandleFunc("GET /v1/corpora", s.handleCorporaList)
	s.mux.HandleFunc("POST /v1/corpora", s.handleCorporaCreate)
	s.mux.HandleFunc("DELETE /v1/corpora/{corpus}", s.handleCorporaDelete)
	// The pre-/v1 aliases are retired.
	s.mux.HandleFunc("GET /search", s.legacyGone("/search", "/v1/search"))
	s.mux.HandleFunc("GET /stats", s.legacyGone("/stats", "/v1/stats"))
	s.rec = resilience.NewRecoverer(s.mux, cfg.Logf)
	s.tel = newServerMetrics(s)
	s.registerDurabilityMetrics()
	s.registerSLOMetrics()
	s.registerTenantMetrics()
	s.registerTraceMetrics()
	s.mux.Handle("GET /metrics", s.tel.reg)
	return s
}

// ServeHTTP is the one handler around every route. It assigns the
// request its ID and sets it on the response before any route runs, so
// shed and panic responses carry it too; it opens the request's exchange
// (one status/bytes recorder holding the record begin and tenantFor fill
// in) and serves the routes inside panic recovery, so a recovered 500 is
// recorded with its status and body. Once they return, the request
// counter, the latency histogram and the access-log line are all taken
// from that one record and that one start instant.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	x := &exchange{ResponseWriter: w}
	x.rq.start = time.Now()
	x.rq.id = telemetry.AdoptRequestID(r.Header.Get(telemetry.RequestIDHeader))
	w.Header().Set(telemetry.RequestIDHeader, x.rq.id)
	s.rec.ServeHTTP(x, r)
	d := time.Since(x.rq.start)
	status := x.status
	if status == 0 {
		status = http.StatusOK // the route wrote nothing: net/http sends 200
	}
	s.tel.requests.With(strconv.Itoa(status)).Inc()
	s.tel.requestSeconds.Observe(d)
	if s.cfg.AccessLog != nil {
		s.logAccess(x, r, d)
	}
}

// logAccess writes the access-log line of one finished exchange. The
// cache verdict and epoch are those of a query or corpus write that
// succeeded; the corpus is the tenant the request resolved to.
func (s *Server) logAccess(x *exchange, r *http.Request, d time.Duration) {
	rq := &x.rq
	e := telemetry.AccessEntry{
		Time:       rq.start.UTC().Format(time.RFC3339Nano),
		RequestID:  rq.id,
		Method:     r.Method,
		Path:       r.URL.Path,
		Query:      r.URL.RawQuery,
		Status:     x.status,
		Bytes:      x.bytes,
		DurationMS: float64(d.Microseconds()) / 1e3,
		Remote:     r.RemoteAddr,
		TraceID:    rq.traceID,
	}
	if rq.tn != nil {
		e.Corpus = rq.tn.Name
	}
	if rq.status == http.StatusOK {
		e.Cache, e.CorpusEpoch = rq.cache, &rq.epoch
	}
	s.writeLine(s.cfg.AccessLog, e)
}

// writeLine appends v to out as one JSON line under the one log lock.
func (s *Server) writeLine(out io.Writer, v any) {
	line, err := json.Marshal(v)
	if err != nil {
		return // the log entries cannot actually fail to marshal
	}
	s.logMu.Lock()
	out.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// newTenant assembles one corpus's serving stack from the server
// configuration: the engine plus a tenant-private admission gate and SLO
// tracker, so one tenant's load or latency cannot bleed into another's
// accounting.
func (s *Server) newTenant(name string, eng *engine.Engine) *registry.Tenant {
	cfg := s.cfg
	var tracker *slo.Tracker
	if !cfg.DisableSLO {
		tracker = slo.NewTracker(slo.DefaultObjectives(
			cfg.SLOHitP99, cfg.SLOMissP99, cfg.SLOBatchP99, cfg.SLOMutateP99,
			cfg.SLOAvailability), slo.Options{})
	}
	tn := registry.NewTenant(name, eng,
		resilience.NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait), tracker)
	if !cfg.DisableTraces {
		tn.Traces = tracestore.New(0, cfg.TraceBudget)
	}
	return tn
}

// tenantFor resolves a request's corpus: the {corpus} path segment on
// scoped routes, the default tenant on the un-scoped /v1 aliases (and on
// the legacy aliases, which have no segment either). A miss writes the
// 404 itself so handlers can plain-return.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) (*registry.Tenant, bool) {
	tn := s.def
	if name := r.PathValue("corpus"); name != "" {
		var ok bool
		if tn, ok = s.reg.Get(name); !ok {
			s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
			return nil, false
		}
	}
	recordOf(w).tn = tn
	return tn, true
}

// registerDurabilityMetrics exposes the default corpus's WAL and
// recovery state under the pre-registry family names, read at scrape
// time (zeros without a WAL); the per-corpus view lives in the labeled
// propserve_tenant_* families.
func (s *Server) registerDurabilityMetrics() {
	reg := s.tel.reg
	reg.GaugeFunc("propserve_ready",
		"1 once startup recovery (if any) has completed, 0 while replaying.",
		func() float64 { return boolGauge(s.def.Ready()) })
	reg.CounterFunc("propserve_wal_appends_total",
		"Mutation batches durably appended to the write-ahead log.",
		func() uint64 { return s.def.WALStats().Appends })
	reg.CounterFunc("propserve_wal_fsyncs_total",
		"Successful fsync calls on the write-ahead log.",
		func() uint64 { return s.def.WALStats().Fsyncs })
	reg.CounterFunc("propserve_wal_errors_total",
		"Failed write-ahead log I/O operations (before retry).",
		func() uint64 { return s.def.WALStats().Errors })
	reg.CounterFunc("propserve_wal_retries_total",
		"Write-ahead log appends re-attempted after a transient failure.",
		func() uint64 { return s.def.WALStats().Retries })
	reg.CounterFunc("propserve_wal_compactions_total",
		"Completed snapshot compactions (log prefix truncations).",
		func() uint64 { return s.def.WALStats().Compactions })
	reg.CounterFunc("propserve_wal_torn_drops_total",
		"Torn log tails repaired at open (unacknowledged final records dropped).",
		func() uint64 { return s.def.WALStats().TornDrops })
	reg.GaugeFunc("propserve_wal_records",
		"Records currently in the write-ahead log file.",
		func() float64 { return float64(s.def.WALStats().Records) })
	reg.GaugeFunc("propserve_wal_bytes",
		"Size of the write-ahead log file in bytes.",
		func() float64 { return float64(s.def.WALStats().Bytes) })
	reg.GaugeFunc("propserve_wal_broken",
		"1 when the write-ahead log has latched an unrecoverable failure and sheds mutations.",
		func() float64 { return boolGauge(s.def.WALStats().Broken) })
	reg.GaugeFunc("propserve_wal_degraded",
		"1 when durability is degraded (recovery failed; mutations shed, reads served).",
		func() float64 { return boolGauge(s.def.DegradedReason() != "") })
	reg.GaugeFunc("propserve_wal_replayed_records",
		"WAL records replayed during the last startup recovery.",
		func() float64 { n, _, _ := s.def.RecoveryStats(); return float64(n) })
	reg.GaugeFunc("propserve_wal_recovery_seconds",
		"Wall-clock duration of the last startup recovery's replay phase.",
		func() float64 { _, _, dur := s.def.RecoveryStats(); return dur.Seconds() })
	reg.GaugeFunc("propserve_corpus_recovered_epoch",
		"Corpus epoch re-established by the last startup recovery (snapshot plus replay).",
		func() float64 { _, epoch, _ := s.def.RecoveryStats(); return float64(epoch) })
}

// registerTenantMetrics exposes the per-corpus view as labeled
// propserve_tenant_* families, read at scrape time over the registry.
// The un-labeled families above keep their pre-registry meaning — the
// default corpus — so existing dashboards survive the registry
// unchanged; these series add every tenant, default included.
func (s *Server) registerTenantMetrics() {
	reg := s.tel.reg
	corpusLabel := func(name string) []telemetry.Label {
		return []telemetry.Label{{Name: "corpus", Value: name}}
	}
	perTenant := func(value func(*registry.Tenant) float64) func() []telemetry.Series {
		return func() []telemetry.Series {
			tenants := s.reg.All()
			out := make([]telemetry.Series, 0, len(tenants))
			for _, tn := range tenants {
				out = append(out, telemetry.Series{Labels: corpusLabel(tn.Name), Value: value(tn)})
			}
			return out
		}
	}
	reg.GaugeSeriesFunc("propserve_tenant_places",
		"Places in each corpus's currently published epoch.",
		perTenant(func(tn *registry.Tenant) float64 { return float64(tn.Eng.Stats().Places) }))
	reg.GaugeSeriesFunc("propserve_tenant_corpus_epoch",
		"Currently published epoch of each corpus.",
		perTenant(func(tn *registry.Tenant) float64 { return float64(tn.Eng.Epoch()) }))
	reg.GaugeSeriesFunc("propserve_tenant_shards",
		"Spatial shards each corpus's retrieval runs over: always 1, the corpus's own tree.",
		perTenant(func(*registry.Tenant) float64 { return corpusShards }))
	reg.GaugeSeriesFunc("propserve_tenant_cache_hit_ratio",
		"Score-set LRU hit ratio of each corpus's engine (0 before any lookup).",
		perTenant(func(tn *registry.Tenant) float64 { return tn.Eng.Stats().HitRatio() }))
	reg.GaugeSeriesFunc("propserve_tenant_wal_lag_records",
		"Records in each corpus's write-ahead log not yet folded into a snapshot.",
		perTenant(func(tn *registry.Tenant) float64 { return float64(tn.WALStats().Records) }))
	reg.CounterSeriesFunc("propserve_tenant_mutations_total",
		"Mutation batches published by each corpus.",
		perTenant(func(tn *registry.Tenant) float64 { return float64(tn.Eng.Stats().Mutations) }))
	reg.CounterSeriesFunc("propserve_tenant_gate_admitted_total",
		"Requests admitted by each corpus's gate.",
		perTenant(func(tn *registry.Tenant) float64 { return float64(tn.Gate.Stats().Admitted) }))
	reg.CounterSeriesFunc("propserve_tenant_gate_shed_total",
		"Requests shed by each corpus's gate (full queue or queue timeout).",
		perTenant(func(tn *registry.Tenant) float64 {
			gs := tn.Gate.Stats()
			return float64(gs.Shed + gs.QueueTimeouts)
		}))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// registerSLOMetrics exposes the SLO tracker on /metrics through the
// read-at-scrape pattern: each family snapshots the tracker when scraped,
// so the request path pays nothing for the exposition. The label sets
// (class × window × quantile/kind) are only known from the snapshot,
// hence the series-func collectors.
func (s *Server) registerSLOMetrics() {
	if s.cfg.DisableSLO {
		return
	}
	reg := s.tel.reg
	// perClass lists one family's series over the default corpus's SLO
	// classes; add appends one series labeled with the class and then
	// the given name, value label pairs.
	type addFunc = func(v float64, labels ...string)
	perClass := func(fill func(c slo.ClassSnapshot, add addFunc)) func() []telemetry.Series {
		return func() []telemetry.Series {
			var out []telemetry.Series
			for _, c := range s.def.SLO.Snapshot().Classes {
				fill(c, func(v float64, kv ...string) {
					labels := []telemetry.Label{{Name: "class", Value: c.Class}}
					for i := 0; i+1 < len(kv); i += 2 {
						labels = append(labels, telemetry.Label{Name: kv[i], Value: kv[i+1]})
					}
					out = append(out, telemetry.Series{Labels: labels, Value: v})
				})
			}
			return out
		}
	}
	reg.GaugeSeriesFunc("propserve_slo_latency_seconds",
		"Rolling-window latency quantile estimates per request class (one-bucket sketch error).",
		perClass(func(c slo.ClassSnapshot, add addFunc) {
			for _, ws := range c.Windows {
				win := slo.WindowLabel(ws.Window)
				add(ws.P50.Seconds(), "window", win, "quantile", "0.5")
				add(ws.P95.Seconds(), "window", win, "quantile", "0.95")
				add(ws.P99.Seconds(), "window", win, "quantile", "0.99")
			}
		}))
	reg.GaugeSeriesFunc("propserve_slo_burn_rate",
		"Error-budget burn rate per class and window; sustained 1.0 exactly exhausts the budget.",
		perClass(func(c slo.ClassSnapshot, add addFunc) {
			for _, ws := range c.Windows {
				win := slo.WindowLabel(ws.Window)
				add(ws.AvailabilityBurn, "window", win, "kind", "availability")
				add(ws.LatencyBurn, "window", win, "kind", "latency")
			}
		}))
	reg.GaugeSeriesFunc("propserve_slo_budget_remaining",
		"Fraction of the error budget left per class and window (negative when overspent).",
		perClass(func(c slo.ClassSnapshot, add addFunc) {
			for _, ws := range c.Windows {
				add(ws.BudgetRemaining, "window", slo.WindowLabel(ws.Window))
			}
		}))
	reg.CounterSeriesFunc("propserve_slo_requests_total",
		"Requests recorded by the SLO tracker since start, per class and outcome.",
		perClass(func(c slo.ClassSnapshot, add addFunc) {
			add(float64(c.Total.OK), "outcome", "ok")
			add(float64(c.Total.Errors), "outcome", "error")
			add(float64(c.Total.Shed), "outcome", "shed")
		}))
}

// sloStatsJSON renders one WindowStats as the /v1/slo JSON object. When
// the tracker holds a retained-trace exemplar for a quantile's sketch
// bucket, exemplar_trace maps the quantile name to a trace ID that
// GET /v1/traces/{id} resolves — the jump from "p99 is slow" to "here
// is a slow request's span tree".
func sloStatsJSON(ws slo.WindowStats) map[string]any {
	m := map[string]any{
		"count":             ws.Count,
		"ok":                ws.OK,
		"errors":            ws.Errors,
		"shed":              ws.Shed,
		"slow":              ws.Slow,
		"p50_ms":            slo.FormatDurationMS(ws.P50),
		"p95_ms":            slo.FormatDurationMS(ws.P95),
		"p99_ms":            slo.FormatDurationMS(ws.P99),
		"max_ms":            slo.FormatDurationMS(ws.Max),
		"mean_ms":           slo.FormatDurationMS(ws.Mean),
		"availability_burn": round3(ws.AvailabilityBurn),
		"latency_burn":      round3(ws.LatencyBurn),
		"budget_remaining":  round3(ws.BudgetRemaining),
	}
	if len(ws.Exemplars) > 0 {
		m["exemplar_trace"] = ws.Exemplars
	}
	return m
}

// handleSLO serves GET /v1/slo: every class's objective, lifetime totals,
// and per-window quantile/burn-rate stats. Quantiles carry the sketch's
// one-bucket error bound (a factor of 1.2); burn rates follow the
// multi-window error-budget convention — the 1m window answers "is it
// burning right now", the 1h window "has it burned too much lately".
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if tn.SLO == nil {
		s.writeError(w, http.StatusForbidden, "slo tracking disabled: start the server without -slo=false")
		return
	}
	snap := tn.SLO.Snapshot()
	windows := make([]string, 0, len(snap.Windows))
	for _, d := range snap.Windows {
		windows = append(windows, slo.WindowLabel(d))
	}
	classes := map[string]any{}
	for _, c := range snap.Classes {
		wins := map[string]any{}
		for _, ws := range c.Windows {
			wins[slo.WindowLabel(ws.Window)] = sloStatsJSON(ws)
		}
		classes[c.Class] = map[string]any{
			"objective": map[string]any{
				"quantile":     c.Objective.Quantile,
				"threshold_ms": slo.FormatDurationMS(c.Objective.Threshold),
				"availability": c.Objective.Availability,
			},
			"total":   sloStatsJSON(c.Total),
			"windows": wins,
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"start_time": snap.Start.UTC().Format(time.RFC3339),
		"uptime_s":   round3(time.Since(snap.Start).Seconds()),
		"windows":    windows,
		"classes":    classes,
	})
}

// legacyGone is the fate of the retired pre-/v1 aliases: 410 Gone
// carrying a Deprecation header (draft-ietf-httpapi-deprecation-header)
// and a successor-version Link, so clients that never read the
// deprecation signal still learn the replacement route from the refusal.
func (s *Server) legacyGone(old, successor string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		s.tel.deprecated.With(old).Inc()
		s.writeError(w, http.StatusGone, "%s was retired: use %s", old, successor)
	}
}

// writeJSON writes v with the given status. Encode errors (a client
// hang-up mid-body, or an unencodable value — a bug) are logged with the
// request ID rather than silently dropped; the status line is already
// out, so nothing else can be done for the client.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.Logf("propserve: encoding %d response (request %s): %v",
			status, w.Header().Get(telemetry.RequestIDHeader), err)
	}
}

// writeError writes the error taxonomy payload; the request ID rides
// along in the body so clients quoting an error can be correlated with
// the access log and server log.
func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if id := w.Header().Get(telemetry.RequestIDHeader); id != "" {
		body["request_id"] = id
	}
	s.writeJSON(w, status, body)
}

// statusFor maps pipeline failures onto the HTTP taxonomy: deadline
// overruns are 504, cancellations and shed load 503, caller errors
// (malformed requests, invalid selection parameters, an instance too
// large for the requested algorithm) 400, everything else an internal
// 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, resilience.ErrShed):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrWAL):
		// The batch was neither applied nor published; the server keeps
		// serving reads and the client may retry once durability returns.
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrTooLarge):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrBadParams) || errors.Is(err, engine.ErrBadRequest):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// handleHealthz is the liveness probe: it answers 200 whenever the
// process can serve at all — including while WAL replay runs (reads work
// throughout) and in degraded durability. Orchestrators that restart on
// liveness failure must not restart a recovering server; gate traffic on
// /readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":       "ok",
		"ready":        s.def.Ready(),
		"wal":          s.def.WALState(),
		"places":       len(s.def.Eng.Corpus().Places),
		"corpus_epoch": s.def.Eng.Epoch(),
		"corpora":      s.reg.Len(),
		"inflight":     s.def.Gate.InFlight(),
		"queued":       s.def.Gate.Queued(),
		"capacity":     s.def.Gate.Capacity(),
		"max_K":        s.cfg.MaxK,
		"timeout_s":    s.cfg.QueryTimeout.Seconds(),
	})
}

// handleReadyz is the readiness probe: 503 with a "recovering" body
// while any corpus's startup WAL replay runs, 200 "ready" once every
// corpus is at its recovered epoch and accepts mutations.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	var recovering []string
	for _, tn := range s.reg.All() {
		if !tn.Ready() {
			recovering = append(recovering, tn.Name)
		}
	}
	if len(recovering) > 0 {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"status":       "recovering",
			"corpora":      recovering,
			"corpus_epoch": s.def.Eng.Epoch(),
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":       "ready",
		"wal":          s.def.WALState(),
		"corpus_epoch": s.def.Eng.Epoch(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	gs := s.def.Gate.Stats()
	es := s.def.Eng.Stats()
	ws := s.def.WALStats()
	replayed, recoveredEpoch, recoveryDur := s.def.RecoveryStats()
	walSection := map[string]interface{}{
		"state":            s.def.WALState(),
		"enabled":          s.def.WAL() != nil,
		"replayed_records": uint64(replayed),
		"recovery_seconds": round3(recoveryDur.Seconds()),
		"recovered_epoch":  recoveredEpoch,
	}
	if l := s.def.WAL(); l != nil {
		walSection["sync"] = l.SyncPolicy().String()
		walSection["appends"] = ws.Appends
		walSection["fsyncs"] = ws.Fsyncs
		walSection["errors"] = ws.Errors
		walSection["retries"] = ws.Retries
		walSection["records"] = ws.Records
		walSection["bytes"] = ws.Bytes
		walSection["compactions"] = ws.Compactions
		walSection["torn_drops"] = ws.TornDrops
		walSection["last_epoch"] = ws.LastEpoch
		walSection["broken"] = ws.Broken
	}
	if reason := s.def.DegradedReason(); reason != "" {
		walSection["degraded_reason"] = reason
	}
	// The registry view: one summary per corpus, default included — the
	// rest of this payload stays the default corpus's pre-registry shape.
	corpora := map[string]interface{}{}
	for _, tn := range s.reg.All() {
		corpora[tn.Name] = s.corpusSummary(tn)
	}
	// Corpus facts come from the engine's published snapshot, not the
	// registration-time dataset: mutations move the former, never the
	// latter.
	cur := s.def.Eng.Corpus()
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"server":       s.serverSection(),
		"dataset":      cur.Config.Name,
		"places":       len(cur.Places),
		"vocabulary":   cur.Dict.Len(),
		"extent":       cur.Config.Extent,
		"corpus_epoch": es.Epoch,
		"corpus": map[string]interface{}{
			"epoch":           es.Epoch,
			"mutations":       es.Mutations,
			"places_upserted": es.PlacesUpserted,
			"places_deleted":  es.PlacesDeleted,
			"kept_entries":    es.KeptEntries,
			"swept_entries":   es.SweptEntries,
			"mutation_api":    s.cfg.EnableMutation,
		},
		"corpora": corpora,
		"wal":     walSection,
		"gate": map[string]interface{}{
			"admitted":       gs.Admitted,
			"shed":           gs.Shed,
			"queue_timeouts": gs.QueueTimeouts,
			"cancelled":      gs.Cancelled,
			"inflight":       gs.InFlight,
			"queued":         gs.Queued,
			"capacity":       gs.Capacity,
			"queue_capacity": gs.QueueCapacity,
		},
		"engine": map[string]interface{}{
			"cache": map[string]interface{}{
				"hits":      es.Hits,
				"misses":    es.Misses,
				"coalesced": es.Coalesced,
				"evictions": es.Evictions,
				"entries":   es.Entries,
				"capacity":  es.Capacity,
				"bytes":     es.CacheBytes,
				"hit_ratio": round3(es.HitRatio()),
			},
			"builds":       es.Builds,
			"build_errors": es.BuildErrors,
			"explains":     es.Explains,
			"shards":       corpusShards,
			"tables": map[string]interface{}{
				"squared":            es.SquaredTables,
				"radial_resolutions": es.RadialResolutions,
				"bytes":              es.TableBytes,
			},
		},
		"panics_recovered": s.rec.Panics(),
	})
}

// serverSection is the /v1/stats process-identity block: how long this
// instance has been up, what built it, and when it started — the facts a
// load report needs to stamp which server produced its numbers.
func (s *Server) serverSection() map[string]interface{} {
	sec := map[string]interface{}{
		"uptime_s":    round3(time.Since(s.start).Seconds()),
		"start_time":  s.start.UTC().Format(time.RFC3339),
		"start_epoch": s.start.Unix(),
		"go_version":  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				sec["build"] = kv.Value
				break
			}
		}
	}
	return sec
}

// flushSpans records a request trace's spans on the per-stage histogram.
func (s *Server) flushSpans(tr *telemetry.Trace) {
	for _, sp := range tr.Spans() {
		s.tel.stageSeconds.With(sp.Stage).Observe(sp.Dur)
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	rq, ok := s.begin(w, r, "/v1/search", slo.ClassSearchMiss)
	if !ok {
		return
	}
	defer rq.exit()
	req, deg, ok := rq.parse(func(e *engine.Engine) (*engine.QueryRequest, error) {
		return e.RequestFromValues(r.URL.Query())
	})
	if !ok {
		return
	}
	res, err := rq.tn.Eng.Query(rq.ctx, req)
	if err != nil {
		rq.fail(statusFor(err), "%v", err)
		return
	}

	// The body is assembled into a buffer first so the engine's build and
	// encode spans are closed — and can appear in the Server-Timing header
	// — before any header freezes.
	buf := getBuf()
	defer putBuf(buf)
	body, err := rq.tn.Eng.AppendResponse(*buf, req, res, rq.tr, rq.id, deg.encode())
	if err != nil {
		rq.fail(http.StatusInternalServerError, "encode: %v", err)
		return
	}
	body = append(body, '\n')
	*buf = body
	// Only a straight LRU hit counts as the hit class; computed and
	// coalesced queries stay in the miss class with the looser objective.
	if res.Cache == engine.CacheHit {
		rq.class = slo.ClassSearchHit
	}
	rq.cache, rq.epoch = res.Cache, req.Epoch()
	rq.respond(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// bufPool recycles response-assembly buffers: a search body, a batch
// element or a batch envelope.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 8<<10)
	return &b
}}

func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putBuf(b *[]byte) { bufPool.Put(b) }

// handleExplain serves GET /v1/explain: the /v1/search parameter schema
// evaluated with Engine.Explain, which bypasses the score-set cache and
// recomputes both steps under an introspection collector. The response is
// the search payload plus an "explain" object carrying the greedy trace,
// Step-1 pruning counters, and sampled grid-approximation error. A K
// clamp is reported like a search's; spatial downshifting is exempt (see
// request.parse).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableExplain {
		s.writeError(w, http.StatusForbidden, "explain disabled: start the server with -enable-explain")
		return
	}
	// Explains have no SLO class of their own; the miss class's slow
	// threshold governs retention (an explain is at least a miss's work),
	// but they are untracked: no SLO sample, and no exemplar — exemplars
	// must point at tracked traffic.
	rq, ok := s.begin(w, r, "/v1/explain", slo.ClassSearchMiss)
	if !ok {
		return
	}
	rq.tracked = false
	defer rq.exit()
	req, deg, ok := rq.parse(func(e *engine.Engine) (*engine.QueryRequest, error) {
		return e.RequestFromValues(r.URL.Query())
	})
	if !ok {
		return
	}
	res, rep, err := rq.tn.Eng.Explain(rq.ctx, req)
	if err != nil {
		rq.fail(statusFor(err), "%v", err)
		return
	}
	if rep.Pruning != nil {
		s.tel.msjhPruned.Set(rep.Pruning.PrunedRatio)
	}
	if rep.Grid != nil && rep.Grid.SampledPairs > 0 {
		s.tel.gridErr.Set(rep.Grid.MeanAbsError)
	}

	resp := rq.tn.Eng.BuildResponse(req, res, rq.tr)
	resp.RequestID = rq.id
	resp.Explain = rep
	if d := deg.encode(); d != nil {
		resp.Diagnostics["degraded"] = d
	}
	rq.cache, rq.epoch, rq.report = res.Cache, req.Epoch(), rep
	rq.respond(http.StatusOK)
	endEncode := rq.tr.StartSpan(telemetry.StageEncode)
	s.writeJSON(w, http.StatusOK, resp)
	endEncode()
}

// slowQueryEntry is one slow-query log line: enough context to understand
// the query without the access log, the full stage breakdown, and — for
// explain requests — the algorithm-level introspection report.
type slowQueryEntry struct {
	Time        string         `json:"time"`
	RequestID   string         `json:"request_id,omitempty"`
	Endpoint    string         `json:"endpoint"`
	Corpus      string         `json:"corpus,omitempty"`
	TraceID     string         `json:"trace_id,omitempty"`
	DurationMS  float64        `json:"duration_ms"`
	ThresholdMS float64        `json:"threshold_ms"`
	Query       map[string]any `json:"query"`
	StageMS     map[string]any `json:"stage_ms"`
	Cache       string         `json:"cache,omitempty"`
	CorpusEpoch uint64         `json:"corpus_epoch"`
	Explain     any            `json:"explain,omitempty"`
}

// maybeLogSlow emits one structured line when the query's duration d,
// the one exit computed, exceeds the slow-query threshold. The writer
// preference is SlowQueryLog, then the access-log writer, then Logf. The
// retention decision read the same d against a threshold no higher, so
// while tracing is on the line always names the retained trace.
func (s *Server) maybeLogSlow(rq *request, d time.Duration) {
	if s.cfg.SlowQuery <= 0 || d <= s.cfg.SlowQuery {
		return
	}
	req := rq.query
	s.tel.slowQueries.Inc()
	stages := map[string]any{}
	for stage, sd := range rq.tr.Stages() {
		stages[stage] = round3(sd.Seconds() * 1e3)
	}
	e := slowQueryEntry{
		Time:        time.Now().UTC().Format(time.RFC3339Nano),
		RequestID:   rq.id,
		Endpoint:    rq.endpoint,
		Corpus:      rq.tn.Name,
		TraceID:     rq.traceID,
		DurationMS:  round3(d.Seconds() * 1e3),
		ThresholdMS: round3(s.cfg.SlowQuery.Seconds() * 1e3),
		Query: map[string]any{
			"x": req.X, "y": req.Y, "keywords": req.Keywords,
			"K": req.K, "k": req.SmallK,
			"lambda": req.Lambda, "gamma": req.Gamma,
			"algo": req.Algo, "spatial": req.Spatial,
		},
		StageMS:     stages,
		Cache:       rq.cache,
		CorpusEpoch: req.Epoch(),
		Explain:     rq.report,
	}
	out := s.cfg.SlowQueryLog
	if out == nil {
		out = s.cfg.AccessLog
	}
	if out == nil {
		if line, err := json.Marshal(e); err == nil {
			s.cfg.Logf("propserve: slow query: %s", line)
		}
		return
	}
	s.writeLine(out, e)
}

// batchRequest is the POST /v1/batch payload: a list of QueryRequest
// objects. Elements are decoded individually so one malformed query
// fails only its own slot.
type batchRequest struct {
	Queries []json.RawMessage `json:"queries"`
}

// batchOutcome is the outcome of one batch element, in input order: a status
// with either an error or the encoded response (the /v1/search body for
// the same query, in a pooled buffer the envelope writer releases).
type batchOutcome struct {
	status int
	err    string
	body   *[]byte
}

// handleBatch runs up to MaxBatch queries through a bounded worker pool.
// Each element is admitted through the same gate as single searches (so
// a batch cannot starve interactive traffic beyond the shared bound),
// carries its own deadline budget, and reports its own status from the
// same error taxonomy; identical elements coalesce inside the engine.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	var br batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&br); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(br.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch: provide a non-empty \"queries\" array")
		return
	}
	if len(br.Queries) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d queries exceeds the limit of %d", len(br.Queries), s.cfg.MaxBatch)
		return
	}
	s.tel.batches.Inc()
	s.tel.batchQueries.Add(uint64(len(br.Queries)))

	items := make([]batchOutcome, len(br.Queries))
	jobs := make(chan int)
	workers := s.cfg.BatchWorkers
	if workers > len(br.Queries) {
		workers = len(br.Queries)
	}
	requestID := w.Header().Get(telemetry.RequestIDHeader)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				items[idx] = s.batchElement(r.Context(), tn, requestID, idx, br.Queries[idx])
			}
		}()
	}
	for idx := range br.Queries {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	// The envelope: {"request_id":…,"count":n,"results":[{"index":i,
	// "status":…,"error":…|"response":{…}},…]}.
	buf := getBuf()
	defer putBuf(buf)
	out := append(*buf, '{')
	if requestID != "" {
		out = jsonx.AppendString(append(out, `"request_id":`...), requestID)
		out = append(out, ',')
	}
	out = strconv.AppendInt(append(out, `"count":`...), int64(len(items)), 10)
	out = append(out, `,"results":[`...)
	for idx, item := range items {
		if idx > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(append(out, `{"index":`...), int64(idx), 10)
		out = strconv.AppendInt(append(out, `,"status":`...), int64(item.status), 10)
		if item.err != "" {
			out = jsonx.AppendString(append(out, `,"error":`...), item.err)
		}
		if item.body != nil {
			out = append(append(out, `,"response":`...), *item.body...)
			putBuf(item.body)
		}
		out = append(out, '}')
	}
	out = append(out, "]}\n"...)
	*buf = out
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// batchElement runs one batch query through the request lifecycle, like
// a search without a writer of its own: it is clamped, admitted and
// degraded the same way and is one unit of the batch SLO class. Panics
// are contained to the element (batch workers run outside the HTTP
// recovery middleware's goroutine). Each element gets its own trace —
// spans never bleed across elements, and the parent batch's access-log
// line adopts no element's trace ID — while requestID ties every
// element's response and slow-query line back to the parent batch.
func (s *Server) batchElement(parent context.Context, tn *registry.Tenant, requestID string, idx int, raw json.RawMessage) (item batchOutcome) {
	rq := request{
		s: s, tn: tn, tr: telemetry.NewTrace(), start: time.Now(),
		endpoint: "/v1/batch", id: requestID, class: slo.ClassBatch, tracked: true,
	}
	rq.ctx = telemetry.WithTrace(parent, rq.tr)
	defer func() {
		if v := recover(); v != nil {
			s.cfg.Logf("propserve: panic in batch element %d: %v", idx, v)
			item = batchOutcome{status: http.StatusInternalServerError, err: "internal server error"}
		}
	}()
	defer rq.exit()
	failed := func() batchOutcome { return batchOutcome{status: rq.status, err: rq.err} }

	req, deg, ok := rq.parse(func(e *engine.Engine) (*engine.QueryRequest, error) {
		req := e.NewRequest()
		return req, json.Unmarshal(raw, req)
	})
	if !ok {
		return failed()
	}
	res, err := tn.Eng.Query(rq.ctx, req)
	if err != nil {
		rq.fail(statusFor(err), "%v", err)
		return failed()
	}
	buf := getBuf()
	if *buf, err = tn.Eng.AppendResponse(*buf, req, res, rq.tr, requestID, deg.encode()); err != nil {
		putBuf(buf)
		rq.fail(http.StatusInternalServerError, "encode: %v", err)
		return failed()
	}
	rq.cache, rq.epoch = res.Cache, req.Epoch()
	rq.respond(http.StatusOK)
	return batchOutcome{status: http.StatusOK, body: buf}
}

// corpusResponse is the POST /v1/corpus payload: the engine's mutation
// report plus the request ID for log correlation.
type corpusResponse struct {
	RequestID string `json:"request_id,omitempty"`
	engine.MutationResult
}

// handleCorpus serves POST /v1/corpus: one upsert/delete batch applied
// atomically and published as the next corpus epoch. The endpoint is an
// operator opt-in (-enable-mutation), size-capped (-max-mutation-batch),
// and admitted through the same gate as queries — a mutation storm sheds
// with 503 exactly like a query storm, and an index rebuild counts
// against the shared compute bound. In-flight queries are never
// disturbed: they finish on the epoch they pinned at parse time.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableMutation {
		s.writeError(w, http.StatusForbidden, "corpus mutation disabled: start the server with -enable-mutation")
		return
	}
	// Everything past the enablement gate is mutation-class load. Mutations
	// carry a trace too — mostly for the tail rules: a shed or WAL-refused
	// mutation is exactly the request an operator goes looking for.
	rq, ok := s.begin(w, r, "/v1/corpus", slo.ClassMutate)
	if !ok {
		return
	}
	defer rq.exit()
	tn := rq.tn
	// Durability gates, checked before the body is even read: mutations
	// are shed while replay rebuilds the corpus (accepting one would fork
	// history from a state that is still moving) and shed permanently in
	// degraded mode (an unloggable mutation would be lost by the next
	// restart, silently breaking the acknowledged-durability contract).
	if !tn.Ready() {
		rq.retryLater()
		rq.fail(http.StatusServiceUnavailable, "recovering: corpus mutations resume when WAL replay completes")
		return
	}
	if reason := tn.DegradedReason(); reason != "" {
		rq.fail(http.StatusServiceUnavailable, "durability degraded, mutations disabled: %s", reason)
		return
	}
	var m engine.Mutation
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&m); err != nil {
		rq.fail(http.StatusBadRequest, "bad mutation body: %v", err)
		return
	}
	if m.Size() == 0 {
		rq.fail(http.StatusBadRequest, "empty mutation: provide \"upserts\" and/or \"deletes\"")
		return
	}
	if m.Size() > s.cfg.MaxMutationBatch {
		rq.fail(http.StatusBadRequest, "mutation batch of %d operations exceeds the limit of %d",
			m.Size(), s.cfg.MaxMutationBatch)
		return
	}
	if !rq.admit() {
		return
	}

	res, err := tn.Eng.Mutate(rq.ctx, m)
	if err != nil {
		if errors.Is(err, engine.ErrWAL) {
			rq.retryLater()
		}
		rq.fail(statusFor(err), "%v", err)
		return
	}
	s.tel.mutations.Inc()
	s.maybeCompactAsync(tn)
	rq.epoch = res.Epoch
	rq.respond(http.StatusOK)
	s.writeJSON(w, http.StatusOK, corpusResponse{RequestID: rq.id, MutationResult: *res})
}

// corpusSummary is one tenant's entry in GET /v1/corpora and the
// /v1/stats "corpora" section: corpus size and epoch, cache efficiency,
// shard count (corpusShards), and how far the WAL has run ahead of the
// last snapshot (its lag — records a restart would have to replay).
func (s *Server) corpusSummary(tn *registry.Tenant) map[string]interface{} {
	es := tn.Eng.Stats()
	ws := tn.WALStats()
	return map[string]interface{}{
		"places":          es.Places,
		"epoch":           es.Epoch,
		"shards":          corpusShards,
		"mutations":       es.Mutations,
		"cache_hit_ratio": round3(es.HitRatio()),
		"wal": map[string]interface{}{
			"state":       tn.WALState(),
			"lag_records": ws.Records,
			"last_epoch":  ws.LastEpoch,
		},
	}
}

// handleCorporaList serves GET /v1/corpora: every registered corpus with
// its per-tenant stats, sorted by name.
func (s *Server) handleCorporaList(w http.ResponseWriter, _ *http.Request) {
	corpora := map[string]interface{}{}
	for _, tn := range s.reg.All() {
		corpora[tn.Name] = s.corpusSummary(tn)
	}
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":   len(corpora),
		"corpora": corpora,
	})
}

// corpusShards is the shard count /v1/stats, /v1/corpora and
// propserve_tenant_shards report: every corpus retrieves from its own
// IR-tree. On two cores one tree beat two shards on every end-to-end
// metric of both miss workloads (EXPERIMENTS.md), so -shards and the
// "shards" field of POST /v1/corpora are accepted and ignored.
const corpusShards = 1

// maxShards bounds the ignored shard count from -shards or a POST
// /v1/corpora body, so a value that was out of range when it selected
// a shard count is still rejected.
const maxShards = 64

// checkShards rejects a shard count outside [0, maxShards].
func checkShards(n int) error {
	if n < 0 || n > maxShards {
		return fmt.Errorf("shards %d out of range [0, %d]", n, maxShards)
	}
	return nil
}

// createCorpusRequest is the POST /v1/corpora payload. Places and Seed
// parameterise the generated corpus; CacheEntries overrides the
// server-wide default for this tenant (0 inherits, negative is a 400).
// Shards is range-checked like -shards and otherwise ignored.
type createCorpusRequest struct {
	Name         string `json:"name"`
	Places       int    `json:"places"`
	Seed         int64  `json:"seed"`
	Shards       int    `json:"shards"`
	CacheEntries int    `json:"cache_entries"`
}

// handleCorporaCreate serves POST /v1/corpora: registers a new named
// corpus with its own engine, gate, SLO tracker and cache budget.
// Registry administration rides the -enable-mutation opt-in — creating
// a corpus mutates server state exactly like mutating one. Under
// -corpora-dir the corpus is durable: it logs to its own WAL under
// <corpora-dir>/<name> and, when files from a previous life of the name
// exist there, recovers from them instead of generating fresh places.
func (s *Server) handleCorporaCreate(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableMutation {
		s.writeError(w, http.StatusForbidden, "corpus administration disabled: start the server with -enable-mutation")
		return
	}
	var cr createCorpusRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&cr); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad corpus body: %v", err)
		return
	}
	if !registry.ValidName(cr.Name) {
		s.writeError(w, http.StatusBadRequest,
			"invalid corpus name %q: want lowercase [a-z0-9][a-z0-9_-]{0,63}", cr.Name)
		return
	}
	if cr.Places < 0 || cr.Places > 200_000 {
		s.writeError(w, http.StatusBadRequest, "places %d out of range [0, 200000]", cr.Places)
		return
	}
	if err := checkShards(cr.Shards); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cr.CacheEntries < 0 {
		s.writeError(w, http.StatusBadRequest, "cache_entries %d must not be negative", cr.CacheEntries)
		return
	}
	if cr.Places == 0 {
		cr.Places = 1000
	}
	opts := engineOptions(s.cfg)
	if cr.CacheEntries > 0 {
		opts.CacheEntries = cr.CacheEntries
	}
	var dir string
	if s.cfg.CorporaDir != "" {
		dir = filepath.Join(s.cfg.CorporaDir, cr.Name)
	}
	tn, err := s.bootCorpus(r.Context(), cr.Name, dir, generated(cr.Seed, cr.Places), opts)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, registry.ErrExists) {
			status = http.StatusConflict
		}
		s.writeError(w, status, "create corpus %q: %v", cr.Name, err)
		return
	}
	s.cfg.Logf("propserve: corpus %q created: %d places, durable=%v",
		tn.Name, tn.Eng.Stats().Places, dir != "")
	s.writeJSON(w, http.StatusCreated, map[string]interface{}{
		"name":    tn.Name,
		"durable": dir != "",
		"stats":   s.corpusSummary(tn),
	})
}

// handleCorporaDelete serves DELETE /v1/corpora/{corpus}. The default
// corpus is not deletable — the un-scoped /v1 aliases depend on it.
// Deletion unregisters the tenant (requests already routed to it finish
// undisturbed) and closes its WAL; the log and snapshot files stay on
// disk, so re-creating the name recovers its state.
func (s *Server) handleCorporaDelete(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableMutation {
		s.writeError(w, http.StatusForbidden, "corpus administration disabled: start the server with -enable-mutation")
		return
	}
	name := r.PathValue("corpus")
	if name == registry.DefaultName {
		s.writeError(w, http.StatusForbidden, "the default corpus cannot be deleted")
		return
	}
	tn, ok := s.reg.Remove(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown corpus %q", name)
		return
	}
	if l := tn.WAL(); l != nil {
		l.Close()
	}
	epoch := tn.Eng.Epoch()
	s.cfg.Logf("propserve: corpus %q deleted at epoch %d", name, epoch)
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"deleted": name,
		"epoch":   epoch,
	})
}

func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }
