# Convenience targets for the reproduction. Everything is plain `go` —
# the Makefile only names the common invocations.

GO ?= go

.PHONY: all build test vet race race-all cover bench bench-e2e bench-serve bench-suite bench-miss bench-wal bench-load bench-trace bench-diff crash-test check profile report report-small examples clean

all: check

# Default verification path: build, vet, tests, and the race detector on
# the concurrency-bearing packages (serving path, parallel Step 1, stream).
check: build vet test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmarks/ is a module of its own, so ./... neither builds nor vets it:
# an internal/ API change could break harness/replay.go or gate.go unseen.
vet:
	$(GO) vet ./...
	cd benchmarks && $(GO) vet ./...

# internal/engine carries the epoch-snapshot concurrency tests (mutations
# racing pinned queries, singleflight leader panic/cancellation),
# internal/wal the durability layer's locking, cmd/propserve the
# /v1/corpus surface plus queries-during-replay, internal/pairs the one
# Step-1 worker pool (pairs.Fill) and internal/core + internal/textctx +
# internal/grid the fills that run on it (bit-identity tests run the
# worker fan-outs), internal/irtree the shared trees that shards search
# from concurrent goroutines — all must stay in this list.
race:
	$(GO) test -race ./internal/pairs ./internal/core ./internal/irtree ./internal/textctx ./internal/engine ./internal/registry ./internal/dataset ./internal/resilience ./internal/telemetry ./internal/tracestore ./internal/explain ./internal/grid ./internal/stream ./internal/wal ./internal/slo ./internal/loadgen ./cmd/propserve

# The kill-recovery suite: child processes SIGKILL themselves at injected
# WAL fault points; the parent recovers each directory and verifies no
# acknowledged mutation is lost and no torn batch survives.
crash-test:
	$(GO) test ./cmd/propserve -run 'TestCrashRecovery' -count=1 -v

race-all:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The black-box benchmark BENCHMARK.json declares: builds propserve, runs
# it as a child process under four workloads and prints every end-to-end
# and per-layer metric (ARGS passes flags through, e.g.
# ARGS="--workload hit_zipf --seed 7 --seconds 15 --trace 0").
bench-e2e:
	$(GO) run -C benchmarks repro/benchmarks/cmd/propbench $(ARGS)

# Measure the cross-query engine's repeated-query speedup (cache hit vs
# miss) and write BENCH_engine.json. The acceptance bar is a ≥5x speedup.
# SHARDS (default 4) times the sharded fan-out; SHARDS=0 the single tree.
SHARDS ?= 4
bench-serve:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_engine.json BENCH_SERVE_SHARDS=$(SHARDS) $(GO) test ./internal/engine -run TestBenchServe -v
	@cat BENCH_engine.json

# Run the full perf-trajectory suite over the demo corpus: Step-1 engines
# (baseline/msJh/minhash), spatial pSS methods (exact vs grids), and the
# Step-2 greedy algorithms (IAdU vs ABP). Writes BENCH_step1.json,
# BENCH_spatial.json and BENCH_select.json; compare two snapshots with
# `go run ./cmd/benchdiff old.json new.json`.
bench-suite:
	BENCH_SUITE_DIR=$(CURDIR) $(GO) test ./internal/benchsuite -run 'TestBench(Step1|Spatial|Select)' -count=1 -v
	@ls -l BENCH_step1.json BENCH_spatial.json BENCH_select.json

# The large-corpus miss tier: spatial Step-1 (exact vs squared grid) on
# K=2000 instances from 100k- and 1M-place corpora, and the incremental
# ABP heap vs its rescan reference on the standard K=200 instance.
# Writes BENCH_miss.json; benchdiff gates its *_ns_op fields. Corpus
# generation dominates the runtime (the 1M tier takes ~20s to build).
bench-miss:
	BENCH_MISS_DIR=$(CURDIR) $(GO) test ./internal/benchsuite -run TestBenchMiss -count=1 -v -timeout 600s
	@cat BENCH_miss.json

# Measure the durability overhead of mutations: no WAL vs sync=never vs
# sync=always (one fsync per acknowledged batch). Writes BENCH_wal.json.
bench-wal:
	BENCH_WAL_OUT=$(CURDIR)/BENCH_wal.json $(GO) test ./cmd/propserve -run TestBenchWAL -count=1 -v
	@cat BENCH_wal.json

# Drive sustained open-loop load through an in-process server — one run
# per traffic mix (hit-heavy, miss-heavy, mutation-interleaved) — and
# write tail-latency/throughput/shed figures to BENCH_serve_load.json.
# benchdiff gates the *_p99_ms and *_shed_rate fields between snapshots.
bench-load:
	BENCH_LOAD_OUT=$(CURDIR)/BENCH_serve_load.json $(GO) test ./cmd/propserve -run TestBenchServeLoad -count=1 -v -timeout 300s
	@cat BENCH_serve_load.json

# Prove the disabled-tracing path is nil-check-only: time the hit and
# sharded-miss query paths with and without a per-request trace and
# write BENCH_trace.json. hit_ns_op is comparable to BENCH_engine.json's
# hit_ns_op; benchdiff gates the *_ns_op fields between snapshots.
bench-trace:
	BENCH_TRACE_OUT=$(CURDIR)/BENCH_trace.json $(GO) test ./internal/engine -run TestBenchTrace -count=1 -v
	@cat BENCH_trace.json

# Compare the working tree's fresh bench results against the committed
# baselines (OLD=<dir> overrides where the baselines are read from).
# benchdiff tolerates a missing baseline file (a new suite's first run
# reports every field as "new" and passes).
OLD ?= .
bench-diff:
	@for f in BENCH_step1 BENCH_spatial BENCH_select BENCH_miss BENCH_wal BENCH_serve_load BENCH_trace; do \
		echo "--- $$f"; \
		$(GO) run ./cmd/benchdiff $(OLD)/$$f.json $$f.json || true; \
	done

# Start propserve with the pprof debug listener and capture a 10s CPU
# profile into cpu.pprof (inspect with: go tool pprof cpu.pprof).
profile:
	$(GO) build -o /tmp/propserve-profile ./cmd/propserve
	/tmp/propserve-profile -addr 127.0.0.1:18080 -debug-addr 127.0.0.1:16060 -access-log=false & \
	pid=$$!; \
	sleep 2; \
	( for i in $$(seq 1 200); do \
		curl -s -o /dev/null "http://127.0.0.1:18080/v1/search?K=400&k=10&spatial=exact"; \
	  done ) & \
	curl -s -o cpu.pprof "http://127.0.0.1:16060/debug/pprof/profile?seconds=10"; \
	kill $$pid; wait; \
	echo "wrote cpu.pprof"

# Regenerate every figure of the paper's evaluation (full parameter ranges).
report:
	$(GO) run ./cmd/experiments -scale full -out experiments_report.txt -csv results_csv

report-small:
	$(GO) run ./cmd/experiments -scale small

examples:
	for ex in quickstart museums geotags rdfplaces roadnet stream geosocial; do \
		echo "--- $$ex"; $(GO) run ./examples/$$ex || exit 1; \
	done

clean:
	rm -f experiments_report.txt test_output.txt bench_output.txt cpu.pprof
	rm -rf results_csv
