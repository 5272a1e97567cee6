package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/slo"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// collector is the exposition hook shared by all metric kinds: it writes
// the series lines (without HELP/TYPE headers) for a family.
type collector interface {
	collect(w io.Writer, name string)
}

type family struct {
	name, help, kind string
	metric           collector
}

// Registry holds a set of uniquely named metric families and renders
// them in Prometheus text format. The zero value is not usable; call
// NewRegistry. Registration panics on a duplicate or malformed name —
// metric wiring is programmer-controlled, so both are programming
// errors, not runtime conditions.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, kind string, c collector) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric name %q", name))
	}
	r.families[name] = &family{name: name, help: help, kind: kind, metric: c}
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", c)
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — used to expose counts whose source of truth lives elsewhere
// (e.g. resilience.Gate.Stats) without double bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", funcCollector(func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	}))
}

// CounterVec registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{vec[Counter]{label: checkLabel(label)}}
	r.register(name, help, "counter", v)
	return v
}

// Gauge registers and returns a gauge (a value that can go up and down).
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", g)
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", funcCollector(func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	}))
}

// Label is one name/value pair of a Series.
type Label struct {
	Name, Value string
}

// Series is one labelled sample produced by a SeriesFunc collector.
type Series struct {
	Labels []Label
	Value  float64
}

// GaugeSeriesFunc registers a gauge family whose full series set is read
// from fn at scrape time. Unlike GaugeFunc it supports any number of
// labels per series, for families whose label combinations are only
// known when the backing snapshot is taken (e.g. SLO class × window ×
// quantile). Label names must be valid; series with malformed label
// names are dropped at scrape rather than corrupting the exposition.
func (r *Registry) GaugeSeriesFunc(name, help string, fn func() []Series) {
	r.register(name, help, "gauge", seriesCollector(fn))
}

// CounterSeriesFunc registers a counter family whose series set is read
// from fn at scrape time; fn must return monotonically non-decreasing
// values per label combination.
func (r *Registry) CounterSeriesFunc(name, help string, fn func() []Series) {
	r.register(name, help, "counter", seriesCollector(fn))
}

func seriesCollector(fn func() []Series) collector {
	return funcCollector(func(w io.Writer, n string) {
		for _, s := range fn() {
			var b strings.Builder
			ok := true
			for i, l := range s.Labels {
				if !labelNameRE.MatchString(l.Name) {
					ok = false
					break
				}
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
			}
			if !ok {
				continue
			}
			if b.Len() == 0 {
				fmt.Fprintf(w, "%s %s\n", n, formatFloat(s.Value))
			} else {
				fmt.Fprintf(w, "%s{%s} %s\n", n, b.String(), formatFloat(s.Value))
			}
		}
	})
}

// Sketch registers a latency histogram backed by an slo.Sketch, the
// same log-bucketed sketch the SLO tracker keeps, and returns it for
// Observe. It is exposed as a Prometheus histogram (see writeSketch).
func (r *Registry) Sketch(name, help string) *slo.Sketch {
	s := new(slo.Sketch)
	r.register(name, help, "histogram", funcCollector(func(w io.Writer, n string) {
		writeSketch(w, n, "", s)
	}))
	return s
}

// SketchVec registers a sketch histogram family keyed by one label.
func (r *Registry) SketchVec(name, help, label string) *SketchVec {
	v := &SketchVec{vec[slo.Sketch]{label: checkLabel(label)}}
	r.register(name, help, "histogram", v)
	return v
}

func checkLabel(label string) string {
	if !labelNameRE.MatchString(label) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", label))
	}
	return label
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families sorted by name, each with
// exactly one HELP and TYPE header and no duplicate series.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		f.metric.collect(w, f.name)
	}
}

// ServeHTTP implements http.Handler, making the registry mountable as a
// GET /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	r.WritePrometheus(&b)
	io.WriteString(w, b.String())
}

type funcCollector func(w io.Writer, name string)

func (f funcCollector) collect(w io.Writer, name string) { f(w, name) }

// Counter is a monotonically increasing counter; safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) collect(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

// vec is a family of metrics of one kind distinguished by one label
// value, each series created on first use.
type vec[M any] struct {
	mu     sync.RWMutex
	label  string
	series map[string]*M
}

// With returns the series for the given label value, creating it on
// first use. Label values should come from a bounded set (status codes,
// stage names) to keep series cardinality finite.
func (v *vec[M]) With(value string) *M {
	v.mu.RLock()
	m, ok := v.series[value]
	v.mu.RUnlock()
	if ok {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok = v.series[value]; ok {
		return m
	}
	if v.series == nil {
		v.series = make(map[string]*M)
	}
	m = new(M)
	v.series[value] = m
	return m
}

// each calls fn on every series in label-value order.
func (v *vec[M]) each(fn func(value string, m *M)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, v.With(k))
	}
}

// CounterVec is a family of counters distinguished by one label value.
type CounterVec struct{ vec[Counter] }

func (v *CounterVec) collect(w io.Writer, name string) {
	v.each(func(k string, c *Counter) {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, k, c.Value())
	})
}

// SketchVec is a family of sketch histograms distinguished by one label
// value.
type SketchVec struct{ vec[slo.Sketch] }

func (v *SketchVec) collect(w io.Writer, name string) {
	v.each(func(k string, s *slo.Sketch) {
		writeSketch(w, name, fmt.Sprintf("%s=%q,", v.label, k), s)
	})
}

// Gauge is a value that can go up and down; safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) collect(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
}

// sketchStride is the step between exposed sketch boundaries: every
// third boundary, so `le` runs 1e-06, then ×1.2³ = ×1.728 per bucket up
// to ≈ 69 s — 34 finite buckets. The ratio is below 2, so any doubling
// of a latency crosses an exposed boundary.
const sketchStride = 3

// writeSketch renders one sketch as a Prometheus histogram: cumulative
// `le` buckets at every sketchStride-th sketch boundary, +Inf, _sum (the
// sketch's exact nanosecond sum, in seconds) and _count. The sketch's
// buckets are closed on the upper side, so the cumulative count at a
// boundary is exactly the number of observations ≤ it. +Inf and _count
// are both the sum of the buckets read, so one scrape never shows them
// apart even while Observe races it. labels is "" or a rendered
// `label="value",` prefix.
func writeSketch(w io.Writer, name, labels string, s *slo.Sketch) {
	c := s.Counts()
	var cum uint64
	for i, n := range c.Buckets {
		cum += n
		if i < slo.NumBuckets-1 && i%sketchStride == 0 {
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, formatFloat(slo.BucketBound(i)), cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	if labels != "" {
		labels = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(float64(c.SumNs)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP line per the exposition format; label values
// need no separate helper because %q quoting escapes `\`, `"` and
// newlines compatibly.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
