// Command propbench is the repository's benchmark: one command that
// builds cmd/propserve, generates each corpus, runs the server as a child
// process, drives it over HTTP, verifies its answers, and prints every
// metric by name with its unit.
//
//	go run -C benchmarks ./cmd/propbench -seed 1             # all workloads, 30 s each
//	go run -C benchmarks ./cmd/propbench -seed 1 -repeat 2   # twice, compared against the bounds
//	go run -C benchmarks ./cmd/propbench --workload hit_zipf --seed 7 --seconds 15 --trace 0
//
// With -workload the last line of standard output is the one-object
// result BENCHMARK.json's contract asks for. Outputs land in
// benchmarks/out: results.json, <workload>.trace.json, <workload>.server.log.
// See benchmarks/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/benchmarks/harness"
	"repro/benchmarks/workload"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "run only this workload and end with the contract's result line (default: all workloads)")
	seed := flag.Int64("seed", 1, "seed of the request sequence")
	seconds := flag.Int("seconds", 30, "length of the measured phase of each workload")
	trace := flag.Int("trace", 1, "1: also run the traced in-process replay (per-layer metrics, span file); 0: end-to-end only")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and compare the runs against the metric bounds")
	flag.Parse()
	if *seconds < 1 || *repeat < 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	specs := workload.Specs()
	if *name != "" {
		spec, ok := workload.ByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "propbench: unknown workload %q\n", *name)
			return 2
		}
		specs = []workload.Spec{spec}
	}

	// The load model is two closed-loop clients in one process; the
	// harness takes no more of the machine than that needs.
	runtime.GOMAXPROCS(2)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fail := func(err error) int {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "propbench: interrupted")
			return 130
		}
		fmt.Fprintln(os.Stderr, "propbench:", err)
		return 1
	}
	root, err := harness.FindRoot()
	if err != nil {
		return fail(err)
	}
	manifest, err := harness.LoadManifest(root)
	if err != nil {
		return fail(err)
	}
	outDir := filepath.Join(root, "benchmarks", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	// Everything temporary — corpus files, WAL directories — lives in one
	// directory inside the checkout, removed on every way out of run.
	tmpDir, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmpDir)

	buildStart := time.Now()
	bin, err := harness.BuildServer(ctx, root, outDir)
	if err != nil {
		return fail(err)
	}
	buildS := time.Since(buildStart).Seconds()
	fmt.Printf("propbench: built %s in %.2f s\n", bin, buildS)

	cfg := harness.Config{OutDir: outDir, Bin: bin, Seed: *seed, Seconds: *seconds, Trace: *trace != 0}
	corpora := harness.NewCorpora(tmpDir)
	var runs [][]*harness.Result
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		var set []*harness.Result
		for _, spec := range specs {
			res, err := harness.RunWorkload(ctx, cfg, spec, corpora, tmpDir)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", spec.Name, err))
			}
			res.Layers["bench.build_s"] = buildS
			manifest.PrintResult(os.Stdout, res)
			ok = ok && res.OK()
			set = append(set, res)
		}
		runs = append(runs, set)
	}
	if err := harness.WriteResults(filepath.Join(outDir, "results.json"), runs); err != nil {
		return fail(err)
	}
	for rep := 1; rep < len(runs); rep++ {
		fmt.Printf("\nrun 1 against run %d:", rep+1)
		ok = manifest.Compare(os.Stdout, runs[0], runs[rep]) && ok
	}
	if *name != "" {
		line, err := manifest.ContractLine(runs[len(runs)-1][0], cfg.Trace)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "propbench: FAILED — wrong answers, fail_rate above its bound, or runs disagreeing beyond a bound (see above)")
		return 1
	}
	return 0
}
