package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/internal/slo"
)

// TestLoadSmoke runs a short burst of real HTTP load through the
// loadgen harness against an in-process server and checks the contract
// sustained load relies on: the server absorbs the load cleanly (no
// transport errors, no 5xx), and the /v1/slo sketch quantiles agree
// with exact sample quantiles to within one sketch bucket. It runs in
// plain `go test`, so a broken harness or a drifting sketch blocks CI.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load smoke test skipped in -short mode")
	}
	dcfg := dataset.DBpediaLike(5)
	dcfg.Places = 500
	d, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(d, Config{Logf: t.Logf})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Miss-heavy: every request computes, so the whole run lands in one
	// SLO class and the agreement check sees a single coherent series.
	report, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:  ts.URL,
		RPS:      40,
		Duration: 2500 * time.Millisecond,
		Mix:      loadgen.MixMissHeavy,
		Data:     d,
		Seed:     42,
		K:        60,
		SmallK:   6,
	})
	if err != nil {
		t.Fatal(err)
	}

	if report.Sent < 50 {
		t.Fatalf("sent only %d requests in %.1fs at 40 rps", report.Sent, report.MeasuredSeconds)
	}
	if report.TransportErrors != 0 || report.Errors5xx != 0 || report.Client4xx != 0 {
		t.Fatalf("load was not clean: %d transport errors, %d 5xx, %d 4xx",
			report.TransportErrors, report.Errors5xx, report.Client4xx)
	}
	if report.Shed != 0 {
		t.Fatalf("server shed %d of %d requests at a trivial rate", report.Shed, report.Sent)
	}
	if report.OK != report.Sent {
		t.Fatalf("ok = %d, sent = %d", report.OK, report.Sent)
	}
	if report.Server.Samples != report.Sent {
		t.Fatalf("Server-Timing parsed on %d of %d responses", report.Server.Samples, report.Sent)
	}
	if report.Server.P99MS <= 0 || report.Server.P99MS > 5000 {
		t.Fatalf("implausible server p99 = %vms", report.Server.P99MS)
	}

	// Agreement: the sketch estimate for each quantile must land within
	// one bucket of the exact order statistic over the same samples (the
	// Server-Timing durations are byte-for-byte what the tracker saw).
	miss := classStats(t, sloBody(t, s), slo.ClassSearchMiss, "total")
	if got := int(miss["count"].(float64)); got != report.Sent {
		t.Fatalf("slo search_miss count = %d, loadgen sent %d", got, report.Sent)
	}
	for _, q := range []struct {
		p   float64
		key string
	}{
		{0.50, "p50_ms"},
		{0.95, "p95_ms"},
		{0.99, "p99_ms"},
	} {
		est, _ := miss[q.key].(float64)
		sketchBucket := slo.BucketIndex(time.Duration(est * float64(time.Millisecond)))
		exactBucket := slo.BucketIndex(report.ExactQuantile(q.p))
		if diff := sketchBucket - exactBucket; diff < -1 || diff > 1 {
			t.Errorf("%s: sketch %vms (bucket %d) vs exact %v (bucket %d): off by %d buckets",
				q.key, est, sketchBucket, report.ExactQuantile(q.p), exactBucket, diff)
		}
	}
}
