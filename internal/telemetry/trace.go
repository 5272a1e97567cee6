package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The canonical stage names of the /search pipeline, matching the
// Step 1 / Step 2 decomposition of DESIGN.md: request parsing, admission
// wait at the resilience gate, top-K retrieval, the all-pairs contextual
// (pCS) and spatial (pSS) phases of Step 1, greedy selection (Step 2),
// and response encoding. The pCS and pSS spans are recorded by
// internal/core's fused Step 1 pass (fusedStep1), the select span by
// core.SelectCtx.
const (
	StageParse     = "parse"
	StageAdmission = "admission_wait"
	StageRetrieve  = "retrieve"
	StagePCS       = "step1_pcs"
	StagePSS       = "step1_pss"
	StageSelect    = "step2_select"
	StageEncode    = "encode"
	// StageBuild is the cold build of a response's request-invariant part
	// — selection diagnostics, place rendering and fragment encode — paid
	// once per (score set, algorithm, k, λ); a request served a memoised
	// answer records no such span.
	StageBuild = "build_response"
	// StageShard is one shard's priming inside a sharded retrieve
	// (dataset.ShardView, which the benchmark's replay runs; the server
	// retrieves from one tree): the parallel Search+refill that fills the
	// shard's merge prefix. Its spans are children of the surrounding
	// StageRetrieve span, one per shard, carrying primed/refill/merge-wait
	// attributes.
	StageShard = "shard_retrieve"
	// StageMerge is the serial k-way merge that consumes the shard
	// prefixes; also a child of StageRetrieve.
	StageMerge = "merge"
	// StageReplay is not part of the per-request pipeline: it labels the
	// per-record apply latency of WAL replay during startup recovery, so
	// recovery cost lands in the same propserve_stage_seconds histogram
	// operators already watch.
	StageReplay = "wal_replay"
)

// Attr is one key/value annotation on a span (shard index, primed
// count, refills...). Values should be small scalars; they are carried
// into retained traces verbatim.
type Attr struct {
	Key   string
	Value any
}

// Span is one completed stage of a request, stored as offsets from the
// trace start so spans from one trace share a single clock. Spans form
// a tree: Parent is the ID of the enclosing span, or 0 for spans
// directly under the request root.
type Span struct {
	// ID is the span's trace-local identifier, 1-based in allocation
	// order. 0 is reserved for "the request root" and never allocated.
	ID int
	// Parent is the enclosing span's ID, or 0 when the span sits
	// directly under the request root.
	Parent int
	Stage  string
	Start  time.Duration // offset of the stage start from the trace start
	Dur    time.Duration
	Attrs  []Attr
}

// Trace records the stage spans of one request as a tree rooted at the
// request itself. A nil *Trace is valid and records nothing, so
// instrumented code can call TraceFrom(ctx).StartSpan(...)
// unconditionally. Safe for concurrent use.
type Trace struct {
	t0     time.Time
	id     string // 32 lowercase hex chars (W3C trace-id)
	root   string // 16 lowercase hex chars (W3C parent-id we emit)
	remote string // ingress parent span ID when adopted, else ""
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

// tidFallback seeds generated trace IDs when crypto/rand fails (it
// practically never does); a process-unique counter keeps them distinct.
var tidFallback atomic.Uint64

// NewTrace starts a trace with a fresh trace ID; its clock starts now.
func NewTrace() *Trace {
	// One read covers the 16-byte trace ID and the 8-byte span ID.
	var raw [24]byte
	if _, err := rand.Read(raw[:]); err != nil {
		v := tidFallback.Add(1)
		for i := range raw {
			raw[i] = byte(v >> (8 * (i % 8)))
		}
	}
	var hexed [2 * len(raw)]byte
	hex.Encode(hexed[:], raw[:])
	return &Trace{
		t0: time.Now(), id: string(hexed[:32]), root: string(hexed[32:]),
		spans: make([]Span, 0, 8), // a hit records 3 spans, a miss 7
	}
}

// ID returns the trace's W3C trace-id (32 lowercase hex characters).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetRemote adopts an ingress traceparent: the trace keeps the caller's
// trace ID (so the request joins the caller's distributed trace) and
// remembers the caller's span ID as the remote parent. Call it before
// the trace is shared across goroutines.
func (t *Trace) SetRemote(traceID, parentSpanID string) {
	if t == nil {
		return
	}
	t.id = traceID
	t.remote = parentSpanID
}

// RemoteParent returns the ingress parent span ID adopted via SetRemote,
// or "" when the trace was locally rooted.
func (t *Trace) RemoteParent() string {
	if t == nil {
		return ""
	}
	return t.remote
}

// TraceParent renders the trace's egress W3C traceparent header value:
// the trace ID plus the span ID this process answers under.
func (t *Trace) TraceParent() string {
	if t == nil {
		return ""
	}
	return "00-" + t.id + "-" + t.root + "-01"
}

// startSpan allocates a span ID under parent and returns it with the
// closure that records the span (idempotently) with any closing attrs.
func (t *Trace) startSpan(stage string, parent int) (id int, end func(attrs ...Attr)) {
	if t == nil {
		return 0, func(...Attr) {}
	}
	start := time.Since(t.t0)
	id = int(t.nextID.Add(1))
	done := false
	return id, func(attrs ...Attr) {
		d := time.Since(t.t0) - start
		t.mu.Lock()
		if !done {
			done = true
			t.spans = append(t.spans, Span{ID: id, Parent: parent, Stage: stage, Start: start, Dur: d, Attrs: attrs})
		}
		t.mu.Unlock()
	}
}

// StartSpan begins a stage directly under the request root and returns
// the function that ends it. The span is recorded when the returned
// function runs (idempotently), so the idiom is:
//
//	defer tr.StartSpan(telemetry.StagePCS)()
func (t *Trace) StartSpan(stage string) (end func()) {
	_, e := t.startSpan(stage, 0)
	return func() { e() }
}

// Annotate appends attrs to the already-recorded span with the given
// ID. It is how the merge loop attributes per-shard facts (refill
// count, wait-for-merge) that are only known after the shard's own span
// has ended. Unknown or still-open span IDs are ignored.
func (t *Trace) Annotate(id int, attrs ...Attr) {
	if t == nil || id == 0 || len(attrs) == 0 {
		return
	}
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].ID == id {
			t.spans[i].Attrs = append(t.spans[i].Attrs, attrs...)
			break
		}
	}
	t.mu.Unlock()
}

// Spans returns the completed spans sorted by start offset.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	for i := 1; i < len(out); i++ { // insertion sort: spans are nearly ordered
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// StageTotal is one entry of a trace's per-stage rollup.
type StageTotal struct {
	Stage string
	Dur   time.Duration
}

// StageTotals appends the total duration per stage name (a stage recorded
// more than once accumulates) to dst, ascending by name — the order JSON
// object keys are emitted in — and returns it. With a dst of enough
// capacity it does not allocate.
func (t *Trace) StageTotals(dst []StageTotal) []StageTotal {
	if t == nil {
		return dst
	}
	base := len(dst)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		i := base
		for i < len(dst) && dst[i].Stage < s.Stage {
			i++
		}
		if i == len(dst) || dst[i].Stage != s.Stage {
			dst = append(dst, StageTotal{})
			copy(dst[i+1:], dst[i:])
			dst[i] = StageTotal{Stage: s.Stage}
		}
		dst[i].Dur += s.Dur
	}
	return dst
}

// Stages returns StageTotals as a map.
func (t *Trace) Stages() map[string]time.Duration {
	if t == nil {
		return nil
	}
	totals := t.StageTotals(nil)
	out := make(map[string]time.Duration, len(totals))
	for _, s := range totals {
		out[s.Stage] = s.Dur
	}
	return out
}

// Elapsed returns the wall time since the trace started.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

type traceKey struct{}
type spanKey struct{}

// WithTrace returns a context carrying tr; the pipeline stages retrieve
// it with TraceFrom / StartSpan.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace carried by ctx, or nil (a valid no-op
// trace receiver) when there is none.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// spanFrom returns the ID of the context's current enclosing span, or 0
// (the request root) when no BeginSpan is in effect.
func spanFrom(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// StartSpan begins a stage on the trace carried by ctx, if any, as a
// child of the context's current enclosing span. It is the one-liner
// the pipeline stages use:
//
//	defer telemetry.StartSpan(ctx, telemetry.StageSelect)()
func StartSpan(ctx context.Context, stage string) (end func()) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return func() {}
	}
	_, e := tr.startSpan(stage, spanFrom(ctx))
	return func() { e() }
}

// BeginSpan begins a stage like StartSpan but also returns a derived
// context under which further spans become this span's children. Used
// for stages that contain sub-stages (retrieve → per-shard + merge).
// When ctx carries no trace it returns ctx unchanged and a no-op.
func BeginSpan(ctx context.Context, stage string) (context.Context, func(attrs ...Attr)) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, func(...Attr) {}
	}
	id, end := tr.startSpan(stage, spanFrom(ctx))
	return context.WithValue(ctx, spanKey{}, id), end
}

// StartSpanAttrs begins a stage as a child of the context's current
// enclosing span and returns the span's ID (for later Annotate calls)
// plus an end function that records closing attributes. The ID is 0 —
// ignored by Annotate — when ctx carries no trace.
func StartSpanAttrs(ctx context.Context, stage string) (id int, end func(attrs ...Attr)) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return 0, func(...Attr) {}
	}
	return tr.startSpan(stage, spanFrom(ctx))
}

// Annotate appends attrs to an already-ended span of the context's
// trace; a no-op without a trace or with id 0.
func Annotate(ctx context.Context, id int, attrs ...Attr) {
	TraceFrom(ctx).Annotate(id, attrs...)
}

// TraceParentHeader is the W3C trace-context header (traceparent) accepted
// on ingress and echoed (with this process's span ID) on egress. Header
// names are case-insensitive; this is net/http's canonical spelling, which
// Header.Get and Set would otherwise allocate to derive on every call.
const TraceParentHeader = "Traceparent"

// FormatTraceParent renders a version-00 traceparent value.
func FormatTraceParent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceParent parses a W3C traceparent header value
// (version-traceid-parentid-flags). It accepts any version except the
// invalid "ff", requires well-formed non-zero IDs, and returns ok=false
// for anything malformed — the caller then starts a fresh trace.
func ParseTraceParent(h string) (traceID, spanID string, ok bool) {
	if h == "" { // most requests carry none: skip the split's allocation
		return "", "", false
	}
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return "", "", false
	}
	ver, tid, pid := parts[0], parts[1], parts[2]
	if len(ver) != 2 || !isLowerHex(ver) || ver == "ff" {
		return "", "", false
	}
	if len(tid) != 32 || !isLowerHex(tid) || allZero(tid) {
		return "", "", false
	}
	if len(pid) != 16 || !isLowerHex(pid) || allZero(pid) {
		return "", "", false
	}
	if len(parts[3]) != 2 || !isLowerHex(parts[3]) {
		return "", "", false
	}
	return tid, pid, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
