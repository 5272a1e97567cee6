package grid_test

// The large-corpus miss tier, gated on BENCH_MISS_DIR (the directory
// BENCH_miss.json is written into). `make bench-miss` sets it; a plain
// `go test ./...` skips the corpus generation and timing work entirely.
//
// propbench's workloads stop at 100k places; this tier times the spatial
// Step-1 fill on the regime the squared grid was built for: K=2000
// instances retrieved from 100k- and 1M-place corpora.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
)

// missRetrieveK is the instance size |S|: large enough that the O(K²)
// exact fill is firmly past the squared grid's crossover, matching the
// paper's large-K evaluation range.
const missRetrieveK = 2000

// timeNs runs f runs times after one untimed warm-up and returns the mean
// wall-clock nanoseconds per run.
func timeNs(runs int, f func() error) (float64, error) {
	if err := f(); err != nil { // warm-up: first-touch allocations
		return 0, err
	}
	start := time.Now()
	for i := 0; i < runs; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(runs), nil
}

// TestBenchMiss times pss_exact_<tier>_ns_op against
// pss_squared_<tier>_ns_op — the Step-1 spatial fill over a K=2000
// instance retrieved from each corpus tier, with |G| ≈ K cells as the
// paper prescribes — and writes BENCH_miss.json.
func TestBenchMiss(t *testing.T) {
	dir := os.Getenv("BENCH_MISS_DIR")
	if dir == "" {
		t.Skip("set BENCH_MISS_DIR=<dir> to run the large-corpus miss tier (make bench-miss)")
	}
	const seed, runs = 7, 15
	report := map[string]any{
		"benchmark":       "miss_path_large_corpus",
		"dataset":         map[string]any{"name": "dbpedia-like", "seed": seed, "tiers": []int{100_000, 1_000_000}},
		"runs":            map[string]any{"per_pss_method": runs},
		"instance_places": missRetrieveK,
		"go":              runtime.Version(),
		"cpus":            runtime.NumCPU(),
	}
	for _, tier := range []struct {
		name   string
		places int
	}{
		{"100k", 100_000},
		{"1m", 1_000_000},
	} {
		cfg := dataset.DBpediaLike(seed)
		cfg.Places = tier.places
		genStart := time.Now()
		d, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: generated %d places in %v", tier.name, tier.places, time.Since(genStart))

		loc := geo.Pt(d.Config.Extent/2, d.Config.Extent/2)
		places, err := d.Retrieve(dataset.Query{Loc: loc}, missRetrieveK)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]geo.Point, len(places))
		for i := range places {
			pts[i] = places[i].Loc
		}
		cells := len(pts) // the paper's |G| ≈ K rule

		exactNs, err := timeNs(runs, func() error { grid.AllPairsSpatial(loc, pts); return nil })
		if err != nil {
			t.Fatal(err)
		}
		tbl := grid.NewSquaredTable(grid.SideForCells(cells))
		squaredNs, err := timeNs(runs, func() error {
			g, err := grid.NewSquared(loc, pts, cells)
			if err != nil {
				return err
			}
			g.ApproxAllPairs(tbl)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		report["pss_exact_"+tier.name+"_ns_op"] = exactNs
		report["pss_squared_"+tier.name+"_ns_op"] = squaredNs
		report["pss_squared_"+tier.name+"_speedup"] = exactNs / squaredNs
		t.Logf("%s: pSS exact %.0f, squared %.0f ns/op (%.2fx)",
			tier.name, exactNs, squaredNs, exactNs/squaredNs)
	}

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_miss.json")
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
