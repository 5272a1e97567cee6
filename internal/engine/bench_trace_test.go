package engine

import (
	"context"
	"testing"

	"repro/internal/telemetry"
)

// BenchmarkTraceOff measures the cache-hit query path with no trace in
// the context — the -traces=false configuration. The tracing claim is
// that this path pays only nil checks, so this number must stay on the
// BenchmarkEngineHit baseline.
func BenchmarkTraceOff(b *testing.B) {
	e := New(benchData(b), Options{})
	if _, err := e.Query(context.Background(), benchRequest(e, 50)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(context.Background(), benchRequest(e, 50)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOn measures the same hit path carrying a fresh trace
// per iteration, as each served request does: the span-recording cost
// the enabled configuration actually pays.
func BenchmarkTraceOn(b *testing.B) {
	e := New(benchData(b), Options{})
	if _, err := e.Query(context.Background(), benchRequest(e, 50)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := telemetry.WithTrace(context.Background(), telemetry.NewTrace())
		if _, err := e.Query(ctx, benchRequest(e, 50)); err != nil {
			b.Fatal(err)
		}
	}
}
