// Command loadgen drives sustained open-loop load against a running
// propserve instance and reports latency quantiles, throughput and shed
// rate.
//
//	propserve -data db.gob -addr :8080 &
//	loadgen -addr http://127.0.0.1:8080 -data db.gob -rps 200 -duration 30s -mix hit-heavy
//
// Arrivals follow a Poisson process at -rps regardless of response
// latency (open loop), so overload shows up as shed 503s and a growing
// tail instead of a silently slowed client. -mix selects the traffic
// shape: hit-heavy (Zipf-skewed repeats over a small query pool),
// miss-heavy (every query unique, all compute), or mutation-interleaved
// (hit-heavy plus a fraction of POST /v1/corpus batches; the server
// needs -enable-mutation). -warmup runs unrecorded load first so cache
// fill does not pollute the measurement. -corpus aims the whole run at a
// named corpus through the corpus-scoped /v1/corpora/<name>/ routes;
// running two instances with different -corpus values load-tests tenant
// isolation.
//
// The report carries two latency series: client-observed wall time and
// the server-side duration from each response's Server-Timing header —
// the exact values the server recorded into its /v1/slo tracker. -out
// writes the report as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/loadgen"
)

func main() {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the propserve instance")
	corpus := fs.String("corpus", "", "target a named corpus via /v1/corpora/<name>/... (empty: the default corpus via the un-scoped /v1 routes)")
	data := fs.String("data", "", "dataset file the server was started with (empty: the same generated demo corpus)")
	rps := fs.Float64("rps", 50, "target arrival rate (open-loop Poisson)")
	duration := fs.Duration("duration", 10*time.Second, "measured phase length")
	warmup := fs.Duration("warmup", 2*time.Second, "unrecorded warmup phase length")
	mix := fs.String("mix", loadgen.MixHitHeavy, "traffic mix: hit-heavy, miss-heavy or mutation-interleaved")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	poolSize := fs.Int("pool", 32, "distinct-query pool size for the Zipf-skewed mixes")
	zipfS := fs.Float64("zipf-s", 1.3, "Zipf skew parameter (>1; larger = more repetition)")
	bigK := fs.Int("K", 100, "retrieval size sent with every query")
	smallK := fs.Int("k", 10, "result size sent with every query")
	mutFrac := fs.Float64("mutation-fraction", 0.02, "share of arrivals that mutate the corpus under -mix mutation-interleaved")
	out := fs.String("out", "", "write the JSON report to this file (empty: stdout only)")
	fs.Parse(os.Args[1:])

	d, err := loadDataset(*data)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report, err := loadgen.Run(ctx, loadgen.Options{
		BaseURL:          *addr,
		Corpus:           *corpus,
		RPS:              *rps,
		Duration:         *duration,
		Warmup:           *warmup,
		Mix:              *mix,
		Data:             d,
		Seed:             *seed,
		PoolSize:         *poolSize,
		ZipfS:            *zipfS,
		K:                *bigK,
		SmallK:           *smallK,
		MutationFraction: *mutFrac,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	payload := map[string]any{
		"report": report,
		"go":     runtime.Version(),
		"cpus":   runtime.NumCPU(),
		"time":   time.Now().UTC().Format(time.RFC3339),
	}
	if server := serverIdentity(*addr); server != nil {
		payload["server"] = server
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		fatal(err)
	}
	if *out != "" {
		b, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if report.TransportErrors > 0 && report.OK == 0 {
		fatal(fmt.Errorf("no request succeeded (%d transport errors): is %s serving?", report.TransportErrors, *addr))
	}
}

// loadDataset mirrors propserve's corpus bootstrap: an explicit datagen
// file when given, otherwise the same deterministic demo corpus the
// server generates, so client queries hit the server's vocabulary.
func loadDataset(path string) (*dataset.Dataset, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.Load(f)
	}
	cfg := dataset.DBpediaLike(7)
	cfg.Places = 1500
	return dataset.Generate(cfg)
}

// serverIdentity stamps the report with the server-under-test's
// identity from /v1/stats (uptime, build revision, go version, start
// epoch); nil when the endpoint is unreachable — identity is
// best-effort, not a reason to discard a finished run.
func serverIdentity(base string) map[string]any {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimRight(base, "/") + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var stats struct {
		Server map[string]any `json:"server"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&stats) != nil {
		return nil
	}
	return stats.Server
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
