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
// Every corpus is served as N spatial shards (-shards, 1 ≤ N ≤ 64; 0
// means 1), each with its own IR-tree and epoch; one shard is the
// corpus's own tree. With N ≥ 2, Step-1 retrieval fans out across the
// shards in parallel, and results are exactly those of one shard (see
// DESIGN.md). Step 1 of a cache miss is one sequential fused pass;
// -step1-workers=N is ignored and accepted only so that existing command
// lines still parse.
//
// With -wal-dir set, mutations are durable: each batch is appended to a
// checksummed write-ahead log (fsynced per -wal-sync) strictly before its
// epoch is published, snapshots compact the log in the background
// (-wal-compact-records), and startup recovers the newest valid snapshot
// plus a log replay before /readyz flips ready. -wal-required=false turns
// recovery failures into degraded read-mostly serving instead of a fatal
// exit. See README.md "Durability".
//
// Queries are served by a shared cross-query engine (internal/engine):
// maximal grid tables are built once per resolution, score sets are
// cached in an LRU (-cache-entries), and concurrent identical queries
// are computed once and shared. The corpus lives behind epoch-versioned
// snapshots: every query reads the epoch published when it arrived, a
// mutation batch swaps in the next epoch atomically, carries over the
// cache entries it cannot change and sweeps the rest, and responses
// report their epoch in diagnostics.corpus_epoch.
//
// The serving path is guarded by per-request deadline budgets
// (-query-timeout), bounded-concurrency admission control (-max-inflight,
// -max-queue; overload sheds with 503 + Retry-After), a retrieval-size
// ceiling (-max-K), and panic recovery. Every request carries an
// X-Request-ID (echoed in error bodies and the JSON access log, which
// -access-log=false disables), accepts an incoming W3C traceparent header
// and echoes its own on every response, and -debug-addr opts into a
// net/http/pprof
// listener for profiling. Queries slower than -slow-query-ms emit one
// JSON line with their full stage (and, for explains, introspection)
// breakdown. See README.md "Operational resilience", "Observability" and
// "Serving at scale".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/wal"
)

func main() {
	fs := flag.NewFlagSet("propserve", flag.ExitOnError)
	data := fs.String("data", "", "dataset file from datagen (empty: generate a demo corpus)")
	addr := fs.String("addr", ":8080", "listen address")
	queryTimeout := fs.Duration("query-timeout", 10*time.Second, "per-request deadline budget (admission wait + scoring + selection)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent /search requests (0: 2×GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "max /search requests waiting for admission before shedding (0: same as -max-inflight)")
	queueWait := fs.Duration("queue-wait", time.Second, "longest a request may wait for admission before shedding")
	maxK := fs.Int("max-K", 2000, "ceiling on the retrieval size K (quadratic work unit); larger requests are clamped")
	cacheEntries := fs.Int("cache-entries", 0, "score sets held in the engine's LRU cache (0: 128; one entry is ~92·K bytes plus its answer memo)")
	maxBatch := fs.Int("max-batch", 0, "max queries accepted in one POST /v1/batch request (0: 256)")
	batchWorkers := fs.Int("batch-workers", 0, "worker pool size per batch request (0: GOMAXPROCS)")
	degradeBudget := fs.Duration("degrade-budget", 0, "remaining-budget threshold that downshifts spatial=exact to the squared grid (0: query-timeout/4)")
	debugAddr := fs.String("debug-addr", "", "listen address for the net/http/pprof debug server (empty: disabled)")
	accessLog := fs.Bool("access-log", true, "write one structured JSON line per request to stdout")
	enableExplain := fs.Bool("enable-explain", false, "serve GET /v1/explain (cache-bypassing algorithm introspection; more expensive than the query it explains)")
	enableMutation := fs.Bool("enable-mutation", false, "serve POST /v1/corpus (live corpus upsert/delete batches published as new epochs)")
	maxMutationBatch := fs.Int("max-mutation-batch", 0, "max operations (upserts + deletes) accepted in one POST /v1/corpus request (0: 1024)")
	slowQueryMS := fs.Int("slow-query-ms", 0, "latency threshold in milliseconds above which a query emits a slow-query JSON line (0: disabled)")
	sloEnabled := fs.Bool("slo", true, "track per-class SLOs and serve GET /v1/slo (rolling-window quantiles, error-budget burn rates)")
	sloHitP99 := fs.Duration("slo-hit-p99", 10*time.Millisecond, "p99 latency objective for cache-hit searches")
	sloMissP99 := fs.Duration("slo-miss-p99", 250*time.Millisecond, "p99 latency objective for computed (cache-miss) searches")
	sloBatchP99 := fs.Duration("slo-batch-p99", 500*time.Millisecond, "p99 latency objective for individual batch elements")
	sloMutateP99 := fs.Duration("slo-mutate-p99", time.Second, "p99 latency objective for corpus mutations")
	sloAvailability := fs.Float64("slo-availability", 0.999, "success-ratio objective shared by every request class")
	walDir := fs.String("wal-dir", "", "directory for the write-ahead log and corpus snapshots (empty: durability disabled, mutations are volatile)")
	walSync := fs.String("wal-sync", "always", "WAL fsync policy: always (fsync every append), interval (background cadence), never (OS page cache only)")
	walSyncInterval := fs.Duration("wal-sync-interval", 100*time.Millisecond, "fsync cadence under -wal-sync=interval")
	walRequired := fs.Bool("wal-required", true, "treat WAL open/recovery failure as fatal; false degrades to serving reads and shedding mutations with 503")
	walCompactRecords := fs.Int("wal-compact-records", 0, "log length in records beyond which a mutation triggers background snapshot compaction (0: 1024)")
	shards := fs.Int("shards", 0, "spatial shards per corpus for parallel Step-1 fan-out (0 or 1: one shard, the corpus's own tree; at most 64; results are identical either way)")
	fs.Int("step1-workers", 0, "ignored: Step 1 is one sequential pass; accepted so existing command lines still parse")
	traces := fs.Bool("traces", true, "retain per-request traces (tail-based: slow/error/shed/degraded always, -trace-sample for the rest) and serve GET /v1/traces")
	traceSample := fs.Float64("trace-sample", 0.01, "probability that a fast, healthy request's trace is retained (tail rules retain regardless; negative: tail-only)")
	traceBytes := fs.Int("trace-bytes", 0, "byte budget for each corpus's retained-trace ring (0: 4 MiB)")
	traceExport := fs.String("trace-export", "", "file appending one JSON line per retained trace (empty: disabled)")
	corporaDir := fs.String("corpora-dir", "", "directory holding one WAL subdirectory per named corpus; corpora created via POST /v1/corpora become durable, and existing subdirectories are re-registered at boot (empty: created corpora are volatile)")
	fs.Parse(os.Args[1:])
	if err := checkShards(*shards); err != nil {
		fmt.Fprintln(os.Stderr, "propserve: -shards:", err)
		os.Exit(2)
	}
	syncPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "propserve: -wal-sync:", err)
		os.Exit(2)
	}

	cfg := Config{
		QueryTimeout:  *queryTimeout,
		MaxInFlight:   *maxInFlight,
		MaxQueue:      *maxQueue,
		QueueWait:     *queueWait,
		MaxK:          *maxK,
		CacheEntries:  *cacheEntries,
		MaxBatch:      *maxBatch,
		BatchWorkers:  *batchWorkers,
		DegradeBudget: *degradeBudget,
		EnableExplain: *enableExplain,
		SlowQuery:     time.Duration(*slowQueryMS) * time.Millisecond,

		DisableSLO:      !*sloEnabled,
		SLOHitP99:       *sloHitP99,
		SLOMissP99:      *sloMissP99,
		SLOBatchP99:     *sloBatchP99,
		SLOMutateP99:    *sloMutateP99,
		SLOAvailability: *sloAvailability,

		EnableMutation:   *enableMutation,
		MaxMutationBatch: *maxMutationBatch,

		WALCompactRecords: *walCompactRecords,
		WAL:               wal.Options{Sync: syncPolicy, SyncInterval: *walSyncInterval},

		Shards:     *shards,
		CorporaDir: *corporaDir,

		DisableTraces: !*traces,
		TraceSample:   *traceSample,
		TraceBudget:   *traceBytes,
	}
	if *accessLog {
		cfg.AccessLog = os.Stdout
	}
	if cfg.SlowQuery > 0 {
		cfg.SlowQueryLog = os.Stderr
	}
	if *traceExport != "" {
		f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "propserve: opening -trace-export:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.TraceExport = f
	}
	cfg = cfg.withDefaults()

	// Durable boot, steps 1–3 (see durability.go): recover the newest
	// valid snapshot, open the log (truncating any torn tail), and build
	// the engine at the snapshot's epoch. Replay (steps 4–5) runs after
	// the listener is up, so reads are served while the log is applied.
	var (
		d          *dataset.Dataset
		bootEpoch  uint64
		wlog       *wal.Log
		walRecords []wal.Record
		walErr     error
	)
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "propserve:", err)
		os.Exit(1)
	}
	if *walDir != "" {
		if snap, epoch, ok := loadNewestSnapshot(*walDir, cfg.Logf); ok {
			d, bootEpoch = snap, epoch
			fmt.Printf("propserve: recovered snapshot at epoch %d (%d places)\n", epoch, len(d.Places))
		} else {
			if d, err = loadOrGenerate(*data); err != nil {
				fatal(err)
			}
		}
		wlog, walRecords, walErr = wal.Open(*walDir, cfg.WAL)
		if walErr != nil {
			if *walRequired {
				fatal(fmt.Errorf("opening wal in %s: %w (start with -wal-required=false to serve reads anyway)", *walDir, walErr))
			}
			walErr = fmt.Errorf("opening wal in %s: %w", *walDir, walErr)
		}
	} else {
		if d, err = loadOrGenerate(*data); err != nil {
			fatal(err)
		}
	}

	opts := engineOptions(cfg)
	opts.InitialEpoch = bootEpoch
	h := NewServerWithEngine(engine.New(d, opts), cfg)
	if *walDir != "" {
		h.BeginRecovery()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	if *debugAddr != "" {
		// The pprof surface is opt-in and served on its own listener so it
		// is never reachable through the public address.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := dsrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "propserve: debug server:", err)
			}
		}()
		fmt.Printf("propserve: pprof debug server on %s\n", *debugAddr)
	}
	fmt.Printf("propserve: %d places, listening on %s (timeout %v, inflight %d, max K %d)\n",
		len(d.Places), *addr, h.cfg.QueryTimeout, h.cfg.MaxInFlight, h.cfg.MaxK)

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	// Steps 4–5: replay the log through the engine while the listener
	// already serves reads (and answers /readyz with 503 "recovering"),
	// then attach the WAL and flip ready. A recovery failure is fatal
	// under -wal-required; otherwise the server degrades to read-mostly.
	if *walDir != "" {
		if walErr != nil {
			h.DegradeWAL(walErr)
		} else if err := h.Recover(context.Background(), wlog, walRecords); err != nil {
			if *walRequired {
				fatal(fmt.Errorf("wal recovery: %w", err))
			}
			h.DegradeWAL(err)
		}
	}

	// Re-register durable secondary corpora: every subdirectory of
	// -corpora-dir names a corpus from a previous life of the server, and
	// boots through the same snapshot + replay sequence as the default. A
	// corpus that fails to boot is skipped (reads on the others continue),
	// not fatal — its files stay on disk for inspection.
	if *corporaDir != "" {
		entries, err := os.ReadDir(*corporaDir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "propserve: scanning -corpora-dir:", err)
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() || name == registry.DefaultName {
				continue
			}
			gen := func() (*dataset.Dataset, error) {
				c := dataset.DBpediaLike(0)
				c.Places = 1000
				return dataset.Generate(c)
			}
			dir := filepath.Join(*corporaDir, name)
			if _, err := h.bootCorpus(context.Background(), name, dir, gen, engineOptions(cfg)); err != nil {
				fmt.Fprintf(os.Stderr, "propserve: corpus %q boot failed: %v\n", name, err)
				continue
			}
			fmt.Printf("propserve: corpus %q re-registered from %s\n", name, dir)
		}
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
