package harness

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/benchmarks/workload"
)

func manifest(t *testing.T) (*Manifest, string) {
	t.Helper()
	root, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return m, root
}

// TestManifestMeetsTheContract lints BENCHMARK.json against the limits
// the driver refuses a benchmark for, and against the code.
func TestManifestMeetsTheContract(t *testing.T) {
	m, _ := manifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []MetricDef, bounded bool) {
		for _, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q (unit %q): bad or repeated name, or bad unit", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			if !bounded && d.Bound != 0 {
				t.Errorf("%s metric %q carries a bound", kind, d.Name)
			}
		}
	}
	check("end-to-end", m.EndToEnd, true)
	check("per-layer", m.PerLayer, false)
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	var setup *MetricDef
	for i, d := range m.EndToEnd {
		if d.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
		if setup != nil && d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s missing or not {s, lower}: %+v", setup)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}

	specs := workload.Specs()
	if len(m.Workloads) != len(specs) {
		t.Fatalf("manifest lists %d workloads, the code %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d: manifest %q, code %q", i, w.Name, specs[i].Name)
		}
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// TestSmokeHitZipf runs the whole harness once — build, set-up rounds,
// gate, fill, a one-second measured phase, traced replay — so go test
// exercises every code path without running the benchmark proper.
func TestSmokeHitZipf(t *testing.T) {
	m, root := manifest(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := t.TempDir()
	bin, err := BuildServer(ctx, root, out)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.ByName("hit_zipf")
	cfg := Config{OutDir: out, Bin: bin, Seed: 11, Seconds: 1, Trace: true}
	res, err := RunWorkload(ctx, cfg, spec, NewCorpora(out), out)
	if err != nil {
		t.Fatal(err)
	}
	res.Layers["bench.build_s"] = 0 // stamped by the command, which times the build
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
	}
	if got := res.Layers["engine.cache_hit_ratio"]; got < 0.99 {
		t.Errorf("hit_zipf cache hit ratio %v, want >= 0.99", got)
	}
	if got := res.Layers["bench.trace_root_coverage"]; got < 0.95 {
		t.Errorf("children cover %v of the root spans, want >= 0.95", got)
	}

	// Both forms of the contract line carry every metric the manifest names.
	for _, trace := range []bool{false, true} {
		line, err := m.ContractLine(res, trace)
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatal(err)
		}
		want := len(m.EndToEnd)
		if trace {
			want = len(m.PerLayer)
		}
		if len(parsed.Metrics) != want || parsed.Attempted < 1 {
			t.Errorf("trace=%v: %d metrics, want %d; attempted %d", trace, len(parsed.Metrics), want, parsed.Attempted)
		}
		if !trace {
			for name, v := range parsed.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
				}
			}
		}
	}

	raw, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf TraceFile
	if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 || tf.Workload != "hit_zipf" {
		t.Errorf("trace file: %v, %d spans, workload %q", err, len(tf.Spans), tf.Workload)
	}
	if _, err := os.Stat(out + "/hit_zipf.server.log"); err != nil {
		t.Error(err)
	}
}
