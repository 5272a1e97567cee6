package harness

import (
	"math"
	"reflect"
	"testing"
)

func TestRankIsCeilOfPN(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{0.95, 200, 190}, // 0.95·200 is whole: no rounding up to 191
		{0.95, 201, 191},
		{0.95, 199, 190},
		{0.50, 5, 3},
		{0.50, 4, 2},
		{0.99, 100, 99},
		{0.99, 1, 1},
		{0.0, 10, 1},
		{1.0, 10, 10},
	} {
		if got := Rank(c.p, c.n); got != c.want {
			t.Errorf("Rank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{0.95, 200, true}, // 10 beyond
		{0.95, 199, false},
		{0.99, 1000, true},
		{0.99, 999, false},
		{0.50, 20, true},
		{0.50, 19, false},
		{0.95, 0, false},
	} {
		if got := Supported(c.p, c.n); got != c.want {
			t.Errorf("Supported(%v, %d) = %v (beyond %d), want %v", c.p, c.n, got, Beyond(c.p, c.n), c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // unsorted on purpose
	if got := Percentile(vals, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := Percentile(vals, 0.95); got != 10 {
		t.Errorf("p95 = %v, want 10", got)
	}
	if got := Percentile(vals, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if !reflect.DeepEqual(vals[:3], []float64{9, 1, 8}) {
		t.Error("Percentile reordered its input")
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if Percentile(nil, 0.5) != 0 || Median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestMedianOfSegments(t *testing.T) {
	// One slow segment out of five moves max, not the reported median.
	got := Summarize([]float64{1.0, 1.1, 9.0, 0.9, 1.2}, 500)
	want := Summary{Median: 1.1, Min: 0.9, Max: 9.0, Samples: 500}
	if got != want {
		t.Errorf("Summarize = %+v, want %+v", got, want)
	}
	if got := Summarize(nil, 0); got != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15, End: 25},
		// b overlaps a by 10 and c runs past the root's end.
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
		// d lies wholly inside b's interval as a sibling: covered once.
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 45},
	}
	self := SelfTimes(spans)
	want := map[int]int64{
		1: 100 - (60 - 10) - (100 - 90), // children cover [10,60) and [90,100)
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 30,
		6: 10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("SelfTimes = %v, want %v", self, want)
	}
}

func TestRecorder(t *testing.T) {
	var off *Recorder
	if id := off.Begin("x", 0, 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	off.End(0)
	if off.Spans() != nil {
		t.Error("nil recorder has spans")
	}

	r := NewRecorder()
	root := r.Begin("root", 0, 7)
	child := r.Begin("child", root, 7)
	r.End(child)
	r.End(root)
	s := r.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Req != 7 {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].Start > s[1].Start || s[1].End > s[0].End || s[1].End < s[1].Start {
		t.Errorf("child not nested in root: %+v", s)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	const stat = "4242 (prop (serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 " +
		"731 269 0 0 20 0 9 0 123456 1234567890 4321 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := ParseStatCPU(stat)
	if err != nil || got != 731+269 {
		t.Errorf("ParseStatCPU = %d, %v; want 1000", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u 12"} {
		if _, err := ParseStatCPU(bad); err == nil {
			t.Errorf("ParseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	const status = "Name:\tpropserve\nVmPeak:\t 5000000 kB\nVmHWM:\t 3259312 kB\nVmRSS:\t 3000000 kB\n"
	got, err := ParseVmHWM(status)
	if want := 3259312 * 1024 / 1e6; err != nil || math.Abs(got-want) > 1e-9 {
		t.Errorf("ParseVmHWM = %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := ParseVmHWM(bad); err == nil {
			t.Errorf("ParseVmHWM(%q) accepted", bad)
		}
	}
}

func TestParseServerTiming(t *testing.T) {
	got := ParseServerTiming(`app;dur=13.8566, retrieve;dur=0.5295, cache;desc="hit", render;desc="x";dur=0.12, ;dur=1`)
	want := map[string]float64{"app": 13.8566, "retrieve": 0.5295, "render": 0.12}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseServerTiming = %v, want %v", got, want)
	}
	if len(ParseServerTiming("")) != 0 {
		t.Error("empty header must parse to nothing")
	}
}
