package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := reg.Gauge("test_gauge", "a gauge")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v, want 1.5", g.Value())
	}
}

func TestCounterVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("requests_total", "by code", "code")
	v.With("200").Add(3)
	v.With("503").Inc()
	if v.With("200").Value() != 3 || v.With("503").Value() != 1 {
		t.Errorf("vec values wrong")
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`requests_total{code="200"} 3`,
		`requests_total{code="503"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// sketchHist is one sketch family's histogram series as exposed: the
// finite le bounds with their cumulative counts, +Inf, _sum and _count.
type sketchHist struct {
	le    []float64
	cum   []uint64
	inf   uint64
	sum   float64
	count uint64
}

// parseSketch reads the histogram series of name (with the optional
// rendered label prefix, e.g. `stage="parse",`) from an exposition.
func parseSketch(t *testing.T, out, name, labels string) sketchHist {
	t.Helper()
	var h sketchHist
	suffix := ""
	if labels != "" {
		suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	bucket := regexp.MustCompile(`^` + regexp.QuoteMeta(name+"_bucket{"+labels) + `le="([^"]+)"\} (\d+)$`)
	var sawSum, sawCount bool
	for _, line := range strings.Split(out, "\n") {
		if m := bucket.FindStringSubmatch(line); m != nil {
			n, err := strconv.ParseUint(m[2], 10, 64)
			if err != nil {
				t.Fatalf("bucket count in %q: %v", line, err)
			}
			if m[1] == "+Inf" {
				h.inf = n
				continue
			}
			le, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("le in %q: %v", line, err)
			}
			h.le = append(h.le, le)
			h.cum = append(h.cum, n)
		} else if v, ok := strings.CutPrefix(line, name+"_sum"+suffix+" "); ok {
			h.sum, _ = strconv.ParseFloat(v, 64)
			sawSum = true
		} else if v, ok := strings.CutPrefix(line, name+"_count"+suffix+" "); ok {
			h.count, _ = strconv.ParseUint(v, 10, 64)
			sawCount = true
		}
	}
	if len(h.le) == 0 || !sawSum || !sawCount {
		t.Fatalf("%s%s: incomplete histogram in exposition:\n%s", name, suffix, out)
	}
	return h
}

// exposedBucket is the index of the first exposed le bound ≥ v, the
// bucket a Prometheus histogram_quantile places v in (len(le) = +Inf).
func exposedBucket(le []float64, v float64) int { return sort.SearchFloat64s(le, v) }

// TestSketchExposition checks the histogram a sketch is exposed as: 34
// finite bounds from 1e-06 at ×1.728, cumulative counts equal to the
// exact number of observations ≤ each bound (an observation of exactly
// 1µs counts under le="1e-06"), +Inf equal to _count, and _sum exact.
func TestSketchExposition(t *testing.T) {
	reg := NewRegistry()
	s := reg.Sketch("lat_seconds", "latency")
	obs := []time.Duration{
		0, 500 * time.Nanosecond, time.Microsecond, time.Microsecond + 1, 1728 * time.Nanosecond,
		2 * time.Microsecond, time.Millisecond, 5 * time.Millisecond, 7 * time.Second, 90 * time.Second,
	}
	var sumNs int64
	for _, d := range obs {
		s.Observe(d)
		sumNs += int64(d)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "# TYPE lat_seconds histogram\n") {
		t.Errorf("sketch family not typed histogram:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{le="1e-06"} 3`+"\n") {
		t.Errorf(`want lat_seconds_bucket{le="1e-06"} 3 (0, 500ns and exactly 1µs):\n%s`, out)
	}
	h := parseSketch(t, out, "lat_seconds", "")
	if len(h.le) != 34 {
		t.Errorf("%d finite buckets, want 34", len(h.le))
	}
	if h.le[0] != 1e-6 {
		t.Errorf("first le = %g, want 1e-06", h.le[0])
	}
	if last := h.le[len(h.le)-1]; last < 60 || last > 70 {
		t.Errorf("last le = %g, want ≈ 69 s", last)
	}
	for i := 1; i < len(h.le); i++ {
		if r := h.le[i] / h.le[i-1]; math.Abs(r-1.728) > 1e-9 {
			t.Errorf("le[%d]/le[%d] = %v, want 1.728", i, i-1, r)
		}
	}
	for i, le := range h.le {
		var want uint64
		for _, d := range obs {
			if d.Seconds() <= le {
				want++
			}
		}
		if h.cum[i] != want {
			t.Errorf(`le="%g": count %d, want %d`, le, h.cum[i], want)
		}
	}
	if h.inf != uint64(len(obs)) || h.count != uint64(len(obs)) {
		t.Errorf("+Inf = %d, _count = %d, want both %d", h.inf, h.count, len(obs))
	}
	if want := float64(sumNs) / 1e9; h.sum != want {
		t.Errorf("_sum = %v, want %v", h.sum, want)
	}
}

func TestSketchVecExposition(t *testing.T) {
	reg := NewRegistry()
	v := reg.SketchVec("stage_seconds", "per stage", "stage")
	v.With("parse").Observe(500 * time.Microsecond)
	v.With("select").Observe(2 * time.Second)
	v.With("select").Observe(2 * time.Second)
	if v.With("select").Count() != 2 {
		t.Errorf("select count = %d, want 2", v.With("select").Count())
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`stage_seconds_bucket{stage="parse",le="1e-06"} 0`,
		`stage_seconds_bucket{stage="select",le="+Inf"} 2`,
		`stage_seconds_sum{stage="select"} 4`,
		`stage_seconds_sum{stage="parse"} 0.0005`,
		`stage_seconds_count{stage="parse"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, stage := range []string{"parse", "select"} {
		h := parseSketch(t, out, "stage_seconds", `stage="`+stage+`",`)
		if got := h.cum[exposedBucket(h.le, 2)]; stage == "select" && got != 2 {
			t.Errorf("select: count at le ≥ 2 s = %d, want 2", got)
		}
		if h.inf != h.count {
			t.Errorf("%s: +Inf %d != _count %d", stage, h.inf, h.count)
		}
	}
	if strings.Index(out, `stage="parse"`) > strings.Index(out, `stage="select"`) {
		t.Errorf("series not in label order:\n%s", out)
	}
}

// TestSketchBucketsResolveLatency checks the exposed layout's
// resolution. Every doubling of a latency from 1µs to 30s crosses an
// exposed boundary, so a 2× regression inside a mode shows on /metrics.
// The serving distribution is bimodal — cache hits at ~2µs, misses at
// ~5ms — and each mode lands in its own interior bucket.
func TestSketchBucketsResolveLatency(t *testing.T) {
	reg := NewRegistry()
	s := reg.Sketch("req_seconds", "latency")
	s.Observe(2 * time.Microsecond)
	s.Observe(5 * time.Millisecond)
	var b strings.Builder
	reg.WritePrometheus(&b)
	h := parseSketch(t, b.String(), "req_seconds", "")

	for v := time.Microsecond; v <= 30*time.Second; v = v * 23 / 20 {
		if exposedBucket(h.le, v.Seconds()) == exposedBucket(h.le, (2*v).Seconds()) {
			t.Errorf("%v and %v share an exposed bucket", v, 2*v)
		}
	}
	hit, miss := exposedBucket(h.le, 2e-6), exposedBucket(h.le, 5e-3)
	if hit == 0 {
		t.Error("the 2µs hit mode lands in the first bucket")
	}
	if hit == miss || miss == len(h.le) {
		t.Errorf("hit bucket %d, miss bucket %d: want separate interior buckets", hit, miss)
	}
	// The observations themselves: the hit is counted from its bucket on,
	// the miss only from its own.
	if h.cum[hit-1] != 0 || h.cum[hit] != 1 || h.cum[miss-1] != 1 || h.cum[miss] != 2 {
		t.Errorf("cumulative counts around the modes: %v", h.cum)
	}
}

// seriesLine matches one exposition sample line: a metric name, an
// optional label set, and a value.
var seriesLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestExpositionFormat parses the full output of a representative
// registry: every line is either a well-formed comment or a well-formed
// sample, HELP/TYPE appear exactly once per family, and no series
// (name + label set) repeats.
func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "counts a").Inc()
	reg.Gauge("b_gauge", `a "gauge" with \ tricky help`).Set(2.5)
	reg.GaugeFunc("c_gauge", "func gauge", func() float64 { return 7 })
	reg.CounterFunc("d_total", "func counter", func() uint64 { return 9 })
	cv := reg.CounterVec("e_total", "by code", "code")
	cv.With("200").Inc()
	cv.With("404").Inc()
	reg.Sketch("f_seconds", "sketch").Observe(300 * time.Millisecond)
	sv := reg.SketchVec("g_seconds", "sketch vec", "stage")
	sv.With("x").Observe(time.Second)
	sv.With("y").Observe(time.Second)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()

	seen := map[string]bool{}
	helps := map[string]int{}
	var prevFamily string
	var families []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			helps[parts[1]+" "+parts[2]]++
			if parts[1] == "# HELP" && parts[2] != prevFamily {
				families = append(families, parts[2])
				prevFamily = parts[2]
			}
			continue
		}
		m := seriesLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		series := m[1] + m[2]
		if seen[series] {
			t.Errorf("duplicate series %q", series)
		}
		seen[series] = true
	}
	for key, n := range helps {
		if n != 1 {
			t.Errorf("%s appears %d times, want 1", key, n)
		}
	}
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Errorf("families not sorted: %q before %q", families[i-1], families[i])
		}
	}
}

func TestRegistryPanicsOnDuplicateAndBadNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "")
	for name, f := range map[string]func(){
		"duplicate":        func() { reg.Counter("dup_total", "") },
		"bad metric":       func() { reg.Counter("0bad", "") },
		"bad label":        func() { reg.CounterVec("ok_total", "", "0bad") },
		"bad sketch label": func() { reg.SketchVec("ok_seconds", "", "0bad") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMetricsConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g_gauge", "")
	h := reg.Sketch("h_seconds", "")
	hv := reg.SketchVec("hv_seconds", "", "stage")
	v := reg.CounterVec("v_total", "", "code")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				hv.With(fmt.Sprint(w % 3)).Observe(time.Duration(i) * time.Millisecond)
				v.With(fmt.Sprint(w % 3)).Inc()
			}
		}(w)
	}
	// Scrape concurrently with the writers: must be race-free, and every
	// scrape's sketch histograms must be internally consistent.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		var b strings.Builder
		reg.WritePrometheus(&b)
		out := b.String()
		hists := []sketchHist{parseSketch(t, out, "h_seconds", "")}
		if strings.Contains(out, `hv_seconds_count{stage="0"}`) {
			hists = append(hists, parseSketch(t, out, "hv_seconds", `stage="0",`))
		}
		for _, hist := range hists {
			for i := 1; i < len(hist.cum); i++ {
				if hist.cum[i] < hist.cum[i-1] {
					t.Fatalf("buckets decrease at le=%g: %v", hist.le[i], hist.cum)
				}
			}
			if hist.inf != hist.count || hist.inf < hist.cum[len(hist.cum)-1] {
				t.Fatalf("+Inf %d, _count %d, last bucket %d", hist.inf, hist.count, hist.cum[len(hist.cum)-1])
			}
		}
	}
	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("sketch count = %d, want %d", h.Count(), workers*perWorker)
	}
	var vecTotal, sketchTotal uint64
	for i := 0; i < 3; i++ {
		vecTotal += v.With(fmt.Sprint(i)).Value()
		sketchTotal += hv.With(fmt.Sprint(i)).Count()
	}
	if vecTotal != workers*perWorker || sketchTotal != workers*perWorker {
		t.Errorf("vec total = %d, sketch vec total = %d, want %d", vecTotal, sketchTotal, workers*perWorker)
	}
}

func TestSeriesFuncCollectors(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeSeriesFunc("slo_p99_seconds", "per-class p99", func() []Series {
		return []Series{
			{Labels: []Label{{"class", "hit"}, {"window", "1m"}}, Value: 0.002},
			{Labels: []Label{{"class", "miss"}, {"window", "1m"}}, Value: 0.25},
			{Value: 1.5}, // no labels: bare series
			{Labels: []Label{{"bad name", "x"}}, Value: 9}, // dropped
		}
	})
	reg.CounterSeriesFunc("slo_requests_total", "per-outcome requests", func() []Series {
		return []Series{{Labels: []Label{{"class", "hit"}, {"outcome", "ok"}}, Value: 12}}
	})
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE slo_p99_seconds gauge",
		`slo_p99_seconds{class="hit",window="1m"} 0.002`,
		`slo_p99_seconds{class="miss",window="1m"} 0.25`,
		"slo_p99_seconds 1.5",
		"# TYPE slo_requests_total counter",
		`slo_requests_total{class="hit",outcome="ok"} 12`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "bad name") {
		t.Errorf("malformed label leaked into exposition:\n%s", out)
	}
}
