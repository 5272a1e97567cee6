// Command propserve exposes proportional spatial keyword search as an
// HTTP JSON API over a registry of named corpora.
//
//	propserve -data db.gob -addr :8080
//
// Endpoints (versioned under /v1). Query and mutation routes exist in
// two byte-compatible forms: corpus-scoped under /v1/corpora/{name}/...
// and un-scoped aliases that address the corpus named "default" —
// /v1/search ≡ /v1/corpora/default/search, and likewise for explain,
// batch, corpus and slo. The pre-versioning /search and /stats aliases
// are retired and answer 410 Gone with a successor-version Link:
//
//	GET  /healthz                → liveness: {"status":"ok", ...} plus admission-gate
//	                               occupancy and the durability state; always 200 while
//	                               the process can serve reads (including during recovery)
//	GET  /readyz                 → readiness: 503 {"status":"recovering"} while startup
//	                               WAL replay runs, 200 {"status":"ready"} afterwards
//	GET  /v1/stats               → corpus statistics, gate counters, engine cache
//	                               counters, recovered panics, server identity
//	                               (uptime, go version, build revision)
//	GET  /v1/slo                 → per-class service-level state: rolling-window
//	                               (1m/5m/1h) latency quantiles, availability and
//	                               latency error-budget burn rates, budget remaining,
//	                               and exemplar_trace IDs linking quantiles to retained
//	                               traces; on by default, -slo=false disables
//	GET  /v1/traces              → retained request traces, newest first; filter with
//	                               ?corpus=&status=&reason=&min_duration_ms=&limit=;
//	                               tail-sampled (slow/error/shed/degraded always,
//	                               -trace-sample of the rest), -traces=false disables
//	GET  /v1/traces/{id}         → one trace's full span tree: root → retrieve → one
//	                               child per shard (primed/refills/merge-wait) → merge
//	                               → select → render, with per-span attributes
//	GET  /metrics                → Prometheus text-format metrics (requests, stage
//	                               latencies, gate gauges/counters, engine cache
//	                               hit/miss/coalesced/eviction counters, degradations)
//	GET  /v1/search?x=&y=&keywords=a,b&K=100&k=10&lambda=0.5&gamma=0.5&algo=abp&spatial=squared
//	                             → proportional selection with score breakdown, a
//	                               per-stage timing breakdown, and the cache status
//	                               (hit/miss/coalesced) in diagnostics
//	POST /v1/batch               → {"queries":[{...}, ...]} runs up to -max-batch
//	                               queries through a bounded worker pool; each element
//	                               is clamped and degraded like a search and reports
//	                               its own status from the same error taxonomy
//	GET  /v1/explain             → /v1/search parameters evaluated under an
//	                               introspection collector (greedy trace, msJh pruning
//	                               counters, sampled grid error); requires
//	                               -enable-explain and bypasses the score-set cache
//	POST /v1/corpus              → {"upserts":[{"id","x","y","context":[...]}],
//	                               "deletes":["id", ...]} applies one mutation batch
//	                               atomically and publishes the next corpus epoch;
//	                               requires -enable-mutation, capped by
//	                               -max-mutation-batch
//	GET  /v1/corpora             → every registered corpus with per-tenant stats
//	                               (places, epoch, shards, cache hit ratio, WAL lag)
//	POST /v1/corpora             → {"name","places","seed","shards","cache_entries"}
//	                               registers a new corpus with its own engine, gate
//	                               and SLO tracker; durable under -corpora-dir;
//	                               requires -enable-mutation
//	DELETE /v1/corpora/{name}    → unregisters a corpus and closes its WAL (files
//	                               stay on disk); the default corpus is protected
//
// Every corpus is split into -shards spatial shards (results are
// exactly those of one shard) and served by a cross-query engine that
// caches score sets per corpus epoch (internal/engine). With -wal-dir
// the default corpus is durable — a write-ahead log plus snapshots,
// recovered at boot before /readyz flips ready (durability.go) — and
// with -corpora-dir so are the named ones. Every request is bounded by
// a deadline budget (-query-timeout), admission control (-max-inflight,
// -max-queue; overload sheds with 503 + Retry-After) and a ceiling on K
// (-max-K), and carries an X-Request-ID and a W3C traceparent.
// -debug-addr opts into a net/http/pprof listener. propserve -h lists
// every flag; README.md ("Durability", "Operational resilience",
// "Observability", "Serving at scale") describes them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/wal"
)

func main() {
	bc, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error
	}
	if bc.traceExport != "" {
		f, err := os.OpenFile(bc.traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "propserve: opening -trace-export:", err)
			os.Exit(1)
		}
		defer f.Close()
		bc.cfg.TraceExport = f
	}

	h := newServer(bc.cfg)
	srv := &http.Server{
		Addr:              bc.addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	if bc.debugAddr != "" {
		// The pprof surface is opt-in and served on its own listener so it
		// is never reachable through the public address.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: bc.debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := dsrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "propserve: debug server:", err)
			}
		}()
		fmt.Printf("propserve: pprof debug server on %s\n", bc.debugAddr)
	}

	done := make(chan error, 1)
	if err := h.boot(context.Background(), bc, func() {
		fmt.Printf("propserve: %d places, listening on %s (timeout %v, inflight %d, max K %d)\n",
			len(h.def.Eng.Corpus().Places), bc.addr, h.cfg.QueryTimeout, h.cfg.MaxInFlight, h.cfg.MaxK)
		go func() { done <- srv.ListenAndServe() }()
	}); err != nil {
		fmt.Fprintln(os.Stderr, "propserve:", err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "propserve:", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Printf("propserve: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "propserve: shutdown:", err)
			os.Exit(1)
		}
		h.closeWALs()
	}
}

// bootConfig is propserve's parsed command line: the server's Config
// plus the settings only main and its boot read.
type bootConfig struct {
	cfg         Config
	data        string // -data: the default corpus when -wal-dir holds no snapshot
	addr        string
	debugAddr   string
	walDir      string // -wal-dir: the default corpus's log directory
	walRequired bool
	traceExport string
}

// parseFlags parses propserve's command line into a bootConfig. The
// error is flag.ErrHelp after -h, or the failure the flag set has
// already written to stderr; main exits 0 and 2 on them, as
// flag.ExitOnError would.
func parseFlags(args []string, stderr io.Writer) (bootConfig, error) {
	var bc bootConfig
	cfg := &bc.cfg
	fs := flag.NewFlagSet("propserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&bc.data, "data", "", "dataset file from datagen (empty: generate a demo corpus)")
	fs.StringVar(&bc.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&cfg.QueryTimeout, "query-timeout", 10*time.Second, "per-request deadline budget (admission wait + scoring + selection)")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", 0, "max concurrent /search requests (0: 2×GOMAXPROCS)")
	fs.IntVar(&cfg.MaxQueue, "max-queue", 0, "max /search requests waiting for admission before shedding (0: same as -max-inflight)")
	fs.DurationVar(&cfg.QueueWait, "queue-wait", time.Second, "longest a request may wait for admission before shedding")
	fs.IntVar(&cfg.MaxK, "max-K", 2000, "ceiling on the retrieval size K (quadratic work unit); larger requests are clamped")
	fs.IntVar(&cfg.CacheEntries, "cache-entries", 0, "score sets held in the engine's LRU cache (0: 128; one entry is ~92·K bytes plus its answer memo)")
	fs.IntVar(&cfg.MaxBatch, "max-batch", 0, "max queries accepted in one POST /v1/batch request (0: 256)")
	fs.IntVar(&cfg.BatchWorkers, "batch-workers", 0, "worker pool size per batch request (0: GOMAXPROCS)")
	fs.DurationVar(&cfg.DegradeBudget, "degrade-budget", 0, "remaining-budget threshold that downshifts spatial=exact to the squared grid (0: query-timeout/4)")
	fs.StringVar(&bc.debugAddr, "debug-addr", "", "listen address for the net/http/pprof debug server (empty: disabled)")
	accessLog := fs.Bool("access-log", true, "write one structured JSON line per request to stdout")
	fs.BoolVar(&cfg.EnableExplain, "enable-explain", false, "serve GET /v1/explain (cache-bypassing algorithm introspection; more expensive than the query it explains)")
	fs.BoolVar(&cfg.EnableMutation, "enable-mutation", false, "serve POST /v1/corpus (live corpus upsert/delete batches published as new epochs)")
	fs.IntVar(&cfg.MaxMutationBatch, "max-mutation-batch", 0, "max operations (upserts + deletes) accepted in one POST /v1/corpus request (0: 1024)")
	slowQueryMS := fs.Int("slow-query-ms", 0, "latency threshold in milliseconds above which a query emits a slow-query JSON line (0: disabled)")
	sloEnabled := fs.Bool("slo", true, "track per-class SLOs and serve GET /v1/slo (rolling-window quantiles, error-budget burn rates)")
	fs.DurationVar(&cfg.SLOHitP99, "slo-hit-p99", 10*time.Millisecond, "p99 latency objective for cache-hit searches")
	fs.DurationVar(&cfg.SLOMissP99, "slo-miss-p99", 250*time.Millisecond, "p99 latency objective for computed (cache-miss) searches")
	fs.DurationVar(&cfg.SLOBatchP99, "slo-batch-p99", 500*time.Millisecond, "p99 latency objective for individual batch elements")
	fs.DurationVar(&cfg.SLOMutateP99, "slo-mutate-p99", time.Second, "p99 latency objective for corpus mutations")
	fs.Float64Var(&cfg.SLOAvailability, "slo-availability", 0.999, "success-ratio objective shared by every request class")
	fs.StringVar(&bc.walDir, "wal-dir", "", "directory for the write-ahead log and corpus snapshots (empty: durability disabled, mutations are volatile)")
	walSync := fs.String("wal-sync", "always", "WAL fsync policy: always (fsync every append), interval (background cadence), never (OS page cache only)")
	fs.DurationVar(&cfg.WAL.SyncInterval, "wal-sync-interval", 100*time.Millisecond, "fsync cadence under -wal-sync=interval")
	fs.BoolVar(&bc.walRequired, "wal-required", true, "treat WAL open/recovery failure as fatal; false degrades to serving reads and shedding mutations with 503")
	fs.IntVar(&cfg.WALCompactRecords, "wal-compact-records", 0, "log length in records beyond which a mutation triggers background snapshot compaction (0: 1024)")
	fs.IntVar(&cfg.Shards, "shards", 0, "spatial shards per corpus for parallel Step-1 fan-out (0 or 1: one shard, the corpus's own tree; at most 64; results are identical either way)")
	fs.Int("step1-workers", 0, "ignored: Step 1 is one sequential pass; accepted so existing command lines still parse")
	traces := fs.Bool("traces", true, "retain per-request traces (tail-based: slow/error/shed/degraded always, -trace-sample for the rest) and serve GET /v1/traces")
	fs.Float64Var(&cfg.TraceSample, "trace-sample", 0.01, "probability that a fast, healthy request's trace is retained (tail rules retain regardless; negative: tail-only)")
	fs.IntVar(&cfg.TraceBudget, "trace-bytes", 0, "byte budget for each corpus's retained-trace ring (0: 4 MiB)")
	fs.StringVar(&bc.traceExport, "trace-export", "", "file appending one JSON line per retained trace (empty: disabled)")
	fs.StringVar(&cfg.CorporaDir, "corpora-dir", "", "directory holding one WAL subdirectory per named corpus; corpora created via POST /v1/corpora become durable, and existing subdirectories are re-registered at boot (empty: created corpora are volatile)")
	if err := fs.Parse(args); err != nil {
		return bc, err
	}
	if err := checkShards(cfg.Shards); err != nil {
		fmt.Fprintln(stderr, "propserve: -shards:", err)
		return bc, err
	}
	var err error
	if cfg.WAL.Sync, err = wal.ParseSyncPolicy(*walSync); err != nil {
		fmt.Fprintln(stderr, "propserve: -wal-sync:", err)
		return bc, err
	}
	cfg.SlowQuery = time.Duration(*slowQueryMS) * time.Millisecond
	cfg.DisableSLO = !*sloEnabled
	cfg.DisableTraces = !*traces
	if *accessLog {
		cfg.AccessLog = os.Stdout
	}
	if cfg.SlowQuery > 0 {
		cfg.SlowQueryLog = os.Stderr
	}
	return bc, nil
}

// boot opens every corpus main serves — the default one (-wal-dir's
// newest snapshot, else -data, else the demo corpus) and one per
// subdirectory of -corpora-dir — calls serving (main starts its
// listener there), then recovers them in that order, so /readyz stays
// 503 until every corpus has replayed. An error is fatal: the default
// corpus could not be built, or failed under -wal-required. A named
// corpus that fails is skipped with a line on stderr; its files stay.
func (s *Server) boot(ctx context.Context, bc bootConfig, serving func()) error {
	def, defErr := s.openCorpus(registry.DefaultName, bc.walDir,
		func() (*dataset.Dataset, error) { return loadOrGenerate(bc.data) }, engineOptions(s.cfg))
	if def == nil {
		return defErr
	}
	if defErr != nil {
		defErr = fmt.Errorf("opening wal in %s: %w", bc.walDir, defErr)
		if bc.walRequired {
			return fmt.Errorf("%w (start with -wal-required=false to serve reads anyway)", defErr)
		}
	}
	skip := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "propserve: corpus %q boot failed: %v\n", name, err)
	}
	var named []*openedCorpus
	if s.cfg.CorporaDir != "" {
		entries, err := os.ReadDir(s.cfg.CorporaDir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "propserve: scanning -corpora-dir:", err)
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() || name == registry.DefaultName {
				continue
			}
			// Without a snapshot: the corpus a POST with defaults creates.
			oc, err := s.openCorpus(name, filepath.Join(s.cfg.CorporaDir, name), generated(0, 1000), engineOptions(s.cfg))
			if err != nil {
				if oc != nil {
					s.abandon(oc)
				}
				skip(name, err)
				continue
			}
			named = append(named, oc)
		}
	}

	serving()
	if defErr == nil {
		if defErr = s.recoverCorpus(ctx, def); defErr != nil && bc.walRequired {
			return fmt.Errorf("wal recovery: %w", defErr)
		}
	}
	if defErr != nil {
		if def.log != nil {
			def.log.Close()
		}
		def.tn.Degrade(defErr)
		s.cfg.Logf("propserve: DURABILITY DEGRADED, mutations disabled: %v", defErr)
	}
	for _, oc := range named {
		if err := s.recoverCorpus(ctx, oc); err != nil {
			s.abandon(oc)
			skip(oc.tn.Name, err)
			continue
		}
		fmt.Printf("propserve: corpus %q re-registered from %s\n", oc.tn.Name, oc.tn.WALDir)
	}
	return nil
}

func loadOrGenerate(path string) (*dataset.Dataset, error) {
	if path == "" {
		cfg := dataset.DBpediaLike(7)
		cfg.Places = 1500
		return dataset.Generate(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.Load(f)
}
