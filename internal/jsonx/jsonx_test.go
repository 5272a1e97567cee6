package jsonx

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21, 1.234e22,
		-1e-7, 123456789.125, 0.001, 0.332, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-10, 1e-100}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0:
			cases = append(cases, math.Float64frombits(rng.Uint64()))
		case 1:
			cases = append(cases, math.Round(rng.Float64()*1e6)/1e3) // the round3 values of stage_ms
		default:
			cases = append(cases, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
		}
	}
	for _, f := range cases {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		if got, want := string(AppendFloat(nil, f)), marshal(t, f); got != want {
			t.Fatalf("AppendFloat(%x) = %s, encoding/json %s", math.Float64bits(f), got, want)
		}
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "plain", "museum art", "a\"b", `back\slash`, "<tag>&amp;", "tab\there", "nl\n", "\x00\x1f\x7f",
		"héllo", "exact→squared-grid (low budget)", "  ", "bad\xffutf8", "\xc3", "日本語", "trace-me-42", "a,b;c=d"}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		if got, want := string(AppendString(nil, s)), marshal(t, s); got != want {
			t.Fatalf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	if got, want := string(AppendStrings([]byte("x"), cases[:8])), "x"+marshal(t, cases[:8]); got != want {
		t.Fatalf("AppendStrings = %s, want %s", got, want)
	}
	for _, ss := range [][]string{nil, {}} {
		if got, want := string(AppendStrings(nil, ss)), marshal(t, ss); got != want {
			t.Fatalf("AppendStrings(%#v) = %s, encoding/json %s", ss, got, want)
		}
	}
}

func TestAppendStringPlainDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = AppendString(buf[:0], "museum") }); n != 0 {
		t.Fatalf("plain string cost %v allocs", n)
	}
}
