// Package telemetry is the observability substrate of the serving path:
// atomic counters, gauges and latency histograms (slo sketches) with
// Prometheus text-format exposition (metrics.go), a per-request stage
// Trace threaded through context (trace.go), and the request-ID rules
// and structured JSON access-log entry the server writes (httplog.go).
//
// The package sits below every other package of the repository — it
// imports only the standard library and internal/slo, which imports no
// repository package — so the pipeline (internal/core) can record span
// boundaries without import cycles. The paper's whole point is that
// Step 1 (all-pairs pCS via msJh, pSS via the grids) is made cheap
// relative to Step 2 (greedy selection); the stage spans recorded here
// are what lets a running server demonstrate that split per query, and
// what every later performance PR reports against.
//
// All mutation paths are lock-free (atomics) or take a short mutex on
// registration/exposition only, and everything is safe under -race.
package telemetry
