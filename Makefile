# Convenience targets for the reproduction. Everything is plain `go` —
# the Makefile only names the common invocations.

GO ?= go

.PHONY: all build test vet cross race race-all cover fuzz bench bench-e2e bench-miss crash-test check profile report report-small examples clean

all: check

# Default verification path: build, vet, tests, and the race detector on
# the concurrency-bearing packages (serving path, Step-1 fills over shared
# grid tables, sharded retrieval).
check: build vet test race

build:
	$(GO) build ./...

# benchmarks/ is a module of its own, so ./... skips its tests; they are
# the one performance harness, so they run on every check.
test:
	$(GO) test ./...
	cd benchmarks && $(GO) test ./...

# benchmarks/ is a module of its own, so ./... neither builds nor vets it:
# an internal/ API change could break harness/replay.go or gate.go unseen.
# The first step fails when gofmt would reformat any tracked .go file,
# benchmarks/ included.
vet:
	@unformatted="$$(gofmt -l $$(git ls-files '*.go') </dev/null)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd benchmarks && $(GO) vet ./...

# Type-check and vet the whole module for arm64, where the compiler fuses
# multiply-adds. Step 2 recomputes every pair it reads with the very
# function Step 1 sums it with, so the two agree bit for bit there too
# (TestNoFusedMultiplyAddOnArm64); this leg keeps that code building off
# amd64.
cross:
	GOARCH=arm64 $(GO) vet ./...

# internal/engine carries the epoch-snapshot concurrency tests (mutations
# racing pinned queries, singleflight leader panic/cancellation),
# internal/wal the durability layer's locking, cmd/propserve the
# /v1/corpus surface plus queries-during-replay, internal/pairs +
# internal/core + internal/textctx + internal/grid the Step-1 fills that
# concurrent requests run over shared grid tables, internal/irtree the
# shared trees that shards search from concurrent goroutines — all must
# stay in this list.
race:
	$(GO) test -race ./internal/pairs ./internal/core ./internal/irtree ./internal/textctx ./internal/engine ./internal/registry ./internal/dataset ./internal/resilience ./internal/telemetry ./internal/tracestore ./internal/explain ./internal/grid ./internal/wal ./internal/slo ./cmd/propserve

# The kill-recovery suite: child processes SIGKILL themselves at injected
# WAL fault points; the parent recovers each directory and verifies no
# acknowledged mutation is lost and no torn batch survives.
crash-test:
	$(GO) test ./cmd/propserve -run 'TestCrashRecovery' -count=1 -v

race-all:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Every fuzz target of the module for FUZZTIME each, one after another;
# not part of check. `go test -list` names the targets, so a new Fuzz*
# function joins without an edit here.
FUZZTIME ?= 10s
fuzz:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read pkg target; do \
		echo "--- $$target ($$pkg)"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) -parallel 2 || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# The black-box benchmark BENCHMARK.json declares: builds propserve, runs
# it as a child process under four workloads and prints every end-to-end
# and per-layer metric (ARGS passes flags through, e.g.
# ARGS="--workload hit_zipf --seed 7 --seconds 15 --trace 0").
bench-e2e:
	$(GO) run -C benchmarks repro/benchmarks/cmd/propbench $(ARGS)

# The large-corpus miss tier, the one scale propbench does not reach:
# spatial Step-1 (exact vs squared grid) on K=2000 instances from 100k-
# and 1M-place corpora. Writes BENCH_miss.json. Corpus generation
# dominates the runtime (the 1M tier takes ~20s to build).
bench-miss:
	BENCH_MISS_DIR=$(CURDIR) $(GO) test ./internal/grid -run TestBenchMiss -count=1 -v -timeout 600s
	@cat BENCH_miss.json

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
	for ex in quickstart museums geotags rdfplaces roadnet; do \
		echo "--- $$ex"; $(GO) run ./examples/$$ex || exit 1; \
	done

# Only untracked outputs: experiments_report.txt and results_csv/ are
# committed (EXPERIMENTS.md cites them); `make report` overwrites them.
clean:
	rm -f test_output.txt bench_output.txt cpu.pprof
