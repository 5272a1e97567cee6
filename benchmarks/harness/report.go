package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Manifest is the part of BENCHMARK.json the harness uses: the single
// list of workloads, metric names, units and regression bounds. The
// harness reads it rather than repeat it, so what it prints cannot drift
// from what the driver checks.
type Manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// MetricDef names one metric. Bound — the share of the baseline's median
// by which the metric may worsen — is set on end-to-end metrics only.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadManifest reads BENCHMARK.json from the checkout root.
func LoadManifest(root string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// metricValue is one metric in the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ContractLine renders the one-object result the driver reads from the
// last line of standard output: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one. A metric the manifest names
// but the run did not produce is an error.
func (m *Manifest) ContractLine(r *Result, trace bool) ([]byte, error) {
	metrics := map[string]metricValue{}
	if trace {
		for _, def := range m.PerLayer {
			v, ok := r.Layers[def.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %q was not measured", def.Name)
			}
			metrics[def.Name] = metricValue{v, def.Unit}
		}
	} else {
		for _, def := range m.EndToEnd {
			s, ok := r.EndToEnd[def.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %q was not measured", def.Name)
			}
			metrics[def.Name] = metricValue{s.Median, def.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.OK(), r.Attempted, r.Failed, metrics})
}

// PrintResult writes every metric of one workload run by name, with its
// unit: end-to-end metrics as median [min, max] over the segments with
// the sample count, then the per-layer metrics the run produced.
func (m *Manifest) PrintResult(w io.Writer, r *Result) {
	fmt.Fprintf(w, "\n== %s  (seed %d, %d s measured, %d operations, %d failed, %d over the latency limit, fail_rate %.5f)\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.OverLimit, r.FailRate())
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, def := range m.EndToEnd {
		s, ok := r.EndToEnd[def.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-34s %12.4f %-6s [min %.4f, max %.4f]  n=%d\n",
			def.Name, s.Median, def.Unit, s.Min, s.Max, s.Samples)
	}
	for _, def := range m.PerLayer {
		if v, ok := r.Layers[def.Name]; ok {
			fmt.Fprintf(w, "   %-34s %12.4f %s\n", def.Name, v, def.Unit)
		}
	}
}

// Compare prints, per workload and end-to-end metric, the medians of two
// runs of the same code, how much worse the second is than the first as a
// share of the first, and PASS or FAIL against the metric's bound. It
// returns whether every pair passed.
func (m *Manifest) Compare(w io.Writer, first, second []*Result) bool {
	allPass := true
	fmt.Fprintf(w, "\n%-16s %-22s %12s %12s %9s %6s  %s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound", "")
	for i, a := range first {
		b := second[i]
		for _, def := range m.EndToEnd {
			va, vb := a.EndToEnd[def.Name].Median, b.EndToEnd[def.Name].Median
			worse := (vb - va) / va
			if def.Better == "higher" {
				worse = (va - vb) / va
			}
			pass := worse <= def.Bound
			allPass = allPass && pass
			fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %+8.1f%% %5.0f%%  %s\n",
				a.Workload, def.Name, va, vb, 100*worse, 100*def.Bound, passFail(pass))
		}
		fmt.Fprintf(w, "%-16s %-22s %12.5f %12.5f %9s %6s  %s\n", a.Workload, "fail_rate (absolute)",
			a.FailRate(), b.FailRate(), "", fmt.Sprint(maxFailRate), passFail(a.OK() && b.OK()))
		allPass = allPass && a.OK() && b.OK()
	}
	return allPass
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// WriteResults writes every run of the invocation to path as JSON.
func WriteResults(path string, runs [][]*Result) error {
	b, err := json.MarshalIndent(struct {
		Runs [][]*Result `json:"runs"`
	}{runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
