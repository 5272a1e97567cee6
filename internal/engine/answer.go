package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/textctx"
)

// answer is the request-invariant part of one response: everything that
// is a pure function of a score-set entry and a selKey, memoised next to
// the selection so a repeated (cache key, algorithm, k, λ) costs a lookup
// and a copy.
//
// Why it is pure: the entry's score set fixes the places (their contexts
// render through the dictionary, which a later epoch only appends to),
// and its key the location, K after clamping, γ, the spatial method and
// the resolved keyword set; the selKey fixes algorithm, k and λ. The
// selection, HPF breakdown, diagnostics report, rendered places and the
// echo of those very parameters follow from them alone. What does not —
// and so is never stored here — is the request ID, the keywords as the
// client spelled them (several spellings resolve to one keyword set),
// the words that were dropped, the cache verdict, the corpus epoch (an
// entry a write cannot change is carried into the next epoch, answer and
// all; see Engine.Mutate), the degradation report and the timings.
type answer struct {
	sel       core.Selection
	breakdown core.Breakdown

	// Rendered once, by the first request that needs the answer as a
	// response; see Engine.render.
	once   sync.Once
	report metrics.Report
	places []PlaceResult
	// frag is the encoded body cut at the points where per-request fields
	// are spliced in (see AppendResponse for the layout).
	frag [6][]byte
	err  error
}

// selKey carries λ as its bit pattern so that λ = -0 and λ = 0, which
// select identically but echo differently, keep separate answers.
type selKey struct {
	algo   core.Algorithm
	k      int
	lambda uint64
}

// answer returns the memoised answer for (alg, p), computing the selection
// and its HPF breakdown on the entry's score set outside the entry lock so
// distinct parameter sets never serialise. Selection is deterministic
// given a score set, so a duplicated computation under contention is
// wasted work, never a wrong answer.
func (en *entry) answer(ctx context.Context, alg core.Algorithm, p core.Params, memoCap int) (*answer, error) {
	ss := en.ss
	k := selKey{algo: alg, k: p.K, lambda: math.Float64bits(p.Lambda)}
	en.mu.Lock()
	a, ok := en.sels[k]
	en.mu.Unlock()
	if ok {
		return a, nil
	}
	sel, err := core.SelectCtx(ctx, alg, ss, p)
	if err != nil {
		return nil, err
	}
	a = &answer{sel: sel, breakdown: ss.Evaluate(sel.Indices, p.Lambda)}
	en.mu.Lock()
	if len(en.sels) >= memoCap {
		for stale := range en.sels { // drop one arbitrary memo to stay bounded
			delete(en.sels, stale)
			break
		}
	}
	en.sels[k] = a
	en.mu.Unlock()
	return a, nil
}

// render returns res's answer, rendered. A Result from Query carries its
// memoised answer, rendered by whichever request gets here first; a Result
// assembled by hand (Explain, tests, benchmarks) gets a private one built
// from its exported fields by the same code. The build is attributed to a
// StageBuild span on tr; a request that finds the answer rendered records
// none.
func (e *Engine) render(req *QueryRequest, res *Result, tr *telemetry.Trace) *answer {
	a := res.ans
	if a == nil {
		a = &answer{sel: res.Sel, breakdown: res.Breakdown}
	}
	a.once.Do(func() {
		defer tr.StartSpan(telemetry.StageBuild)()
		a.build(req, res.SS, req.corpus().Dict)
	})
	return a
}

// build computes the diagnostics, renders the selected places and encodes
// the body fragments. Only fields of req that the entry key or the selKey
// determine may be read here.
func (a *answer) build(req *QueryRequest, ss *core.ScoreSet, dict *textctx.Dict) {
	a.report = metrics.Evaluate(ss, a.sel.Indices)
	for rank, idx := range a.sel.Indices {
		p := ss.Places[idx]
		ctxWords := p.Context.Words(dict)
		total := len(ctxWords)
		if total > maxContextWords {
			ctxWords = ctxWords[:maxContextWords]
		}
		a.places = append(a.places, PlaceResult{
			Rank: rank + 1, ID: p.ID, X: p.Loc.X, Y: p.Loc.Y, Rel: p.Rel,
			Context: ctxWords, ContextTotal: total, ContextTruncated: total > maxContextWords,
		})
	}
	b := make([]byte, 0, 640+320*len(a.places))
	var cut [len(a.frag)]int
	str := func(s string) { b = append(b, s...) }
	num := func(key string, f float64) {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			a.err = fmt.Errorf("engine: encode response: unsupported value %v at %s", f, key)
		}
		b = append(b, key...)
		b = jsonx.AppendFloat(b, f)
	}
	integer := func(key string, i int64) {
		b = append(b, key...)
		b = strconv.AppendInt(b, i, 10)
	}
	num(`"query":{"x":`, req.X)
	num(`,"y":`, req.Y)
	cut[0] = len(b) // keywords
	integer(`,"K":`, int64(req.K))
	integer(`,"k":`, int64(req.SmallK))
	num(`,"lambda":`, req.Lambda)
	num(`,"gamma":`, req.Gamma)
	str(`,"algo":`)
	b = jsonx.AppendString(b, req.Algo)
	num(`},"hpf":`, a.breakdown.Total)
	num(`,"breakdown":{"pC":`, a.breakdown.PC)
	num(`,"pS":`, a.breakdown.PS)
	num(`,"rel":`, a.breakdown.Rel)
	str(`},"diagnostics":{`)
	cut[1] = len(b) // cache, corpus_epoch, degraded
	num(`"directional_coverage":`, a.report.DirectionalCoverage)
	num(`,"diversity":`, a.report.Diversity)
	num(`,"dominance":`, a.report.Dominance)
	str(`,`)
	cut[2] = len(b) // elapsed_ms
	num(`"inference_match":`, a.report.InferenceMatch)
	str(`,`)
	cut[3] = len(b) // keywords_dropped
	num(`"mean_relevance":`, a.report.MeanRelevance)
	num(`,"rare_share":`, a.report.RareShare)
	str(`,"spatial_method":`)
	b = jsonx.AppendString(b, req.spatial.String())
	str(`,`)
	cut[4] = len(b) // stage_ms
	num(`"type_coverage":`, a.report.TypeCoverage)
	str(`},"results":`)
	if a.places == nil {
		str(`null`)
	} else {
		str(`[`)
		for i, p := range a.places {
			if i > 0 {
				str(`,`)
			}
			integer(`{"rank":`, int64(p.Rank))
			str(`,"id":`)
			b = jsonx.AppendString(b, p.ID)
			num(`,"x":`, p.X)
			num(`,"y":`, p.Y)
			num(`,"rel":`, p.Rel)
			str(`,"context":`)
			b = jsonx.AppendStrings(b, p.Context)
			integer(`,"context_total":`, int64(p.ContextTotal))
			if p.ContextTruncated {
				str(`,"context_truncated":true`)
			}
			str(`}`)
		}
		str(`]`)
	}
	str(`}`)
	cut[5] = len(b)

	from := 0
	for i, to := range cut {
		a.frag[i] = b[from:to:to]
		from = to
	}
}

// BuildResponse renders a Result into the canonical response schema. tr,
// when non-nil, contributes the per-stage timing diagnostics; the caller
// owns policy-level diagnostics (degradation reports, request IDs) and
// may add them to the returned value before encoding. Results, and each
// place's Context, may be shared with other responses and must not be
// modified.
func (e *Engine) BuildResponse(req *QueryRequest, res *Result, tr *telemetry.Trace) *QueryResponse {
	a := e.render(req, res, tr)
	var resp QueryResponse
	resp.Query.X, resp.Query.Y = req.X, req.Y
	resp.Query.K, resp.Query.SmallK = req.K, req.SmallK
	resp.Query.Lambda, resp.Query.Gamma = req.Lambda, req.Gamma
	resp.Query.Algo = req.Algo
	// Echo the keywords as requested, not as resolved: a query whose words
	// all missed the dictionary must not read back as keywordless.
	resp.Query.Keywords = append([]string(nil), req.Keywords...)
	resp.HPF = a.breakdown.Total
	resp.Breakdown = map[string]any{
		"rel": a.breakdown.Rel, "pC": a.breakdown.PC, "pS": a.breakdown.PS,
	}
	resp.Diagnostics = map[string]any{
		"inference_match":      a.report.InferenceMatch,
		"dominance":            a.report.Dominance,
		"rare_share":           a.report.RareShare,
		"type_coverage":        a.report.TypeCoverage,
		"directional_coverage": a.report.DirectionalCoverage,
		"diversity":            a.report.Diversity,
		"mean_relevance":       a.report.MeanRelevance,
		"spatial_method":       req.spatial.String(),
		"cache":                res.Cache,
		"corpus_epoch":         req.Epoch(),
	}
	if len(req.droppedKw) > 0 {
		resp.Diagnostics["keywords_dropped"] = append([]string(nil), req.droppedKw...)
	}
	if tr != nil {
		stages := map[string]any{}
		for stage, d := range tr.Stages() {
			stages[stage] = durationMS(d)
		}
		resp.Diagnostics["stage_ms"] = stages
		resp.Diagnostics["elapsed_ms"] = durationMS(tr.Elapsed())
	}
	resp.Results = a.places
	return &resp
}

// AppendResponse appends the encoded response for res to dst: the bytes
// json.Marshal yields for BuildResponse's value once the caller has set
// RequestID and, when degraded is non-nil, Diagnostics["degraded"] to the
// value degraded encodes. It splices the per-request fields between the
// answer's pre-encoded fragments, so a memoised answer costs a copy:
//
//	{ [request_id] frag0 [keywords] frag1 cache corpus_epoch [degraded]
//	  frag2 [elapsed_ms] frag3 [keywords_dropped] frag4 [stage_ms] frag5
//
// (diagnostics keys are emitted in sorted order, as encoding/json emits a
// map, which is what interleaves the two kinds). The splice is recorded on
// tr as a StageEncode span, after — never around — a cold build's
// StageBuild span; stage_ms carries the stages completed before it.
func (e *Engine) AppendResponse(dst []byte, req *QueryRequest, res *Result, tr *telemetry.Trace, requestID string, degraded json.RawMessage) ([]byte, error) {
	a := e.render(req, res, tr)
	if a.err != nil {
		return dst, a.err
	}
	defer tr.StartSpan(telemetry.StageEncode)()
	// After render, so a cold build's span is in the rollup; stages before
	// elapsed, so the stage sum never exceeds it.
	var stageBuf [12]telemetry.StageTotal
	stages := tr.StageTotals(stageBuf[:0])
	elapsed := tr.Elapsed()

	dst = append(dst, '{')
	if requestID != "" {
		dst = append(dst, `"request_id":`...)
		dst = jsonx.AppendString(dst, requestID)
		dst = append(dst, ',')
	}
	dst = append(dst, a.frag[0]...)
	if len(req.Keywords) > 0 {
		dst = append(dst, `,"keywords":`...)
		dst = jsonx.AppendStrings(dst, req.Keywords)
	}
	dst = append(dst, a.frag[1]...)
	dst = append(dst, `"cache":`...)
	dst = jsonx.AppendString(dst, res.Cache)
	dst = append(dst, `,"corpus_epoch":`...)
	dst = strconv.AppendUint(dst, req.Epoch(), 10)
	dst = append(dst, ',')
	if degraded != nil {
		dst = append(dst, `"degraded":`...)
		dst = append(dst, degraded...)
		dst = append(dst, ',')
	}
	dst = append(dst, a.frag[2]...)
	if tr != nil {
		dst = append(dst, `"elapsed_ms":`...)
		dst = jsonx.AppendFloat(dst, durationMS(elapsed))
		dst = append(dst, ',')
	}
	dst = append(dst, a.frag[3]...)
	if len(req.droppedKw) > 0 {
		dst = append(dst, `"keywords_dropped":`...)
		dst = jsonx.AppendStrings(dst, req.droppedKw)
		dst = append(dst, ',')
	}
	dst = append(dst, a.frag[4]...)
	if tr != nil {
		dst = append(dst, `"stage_ms":{`...)
		for i, s := range stages {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonx.AppendString(dst, s.Stage)
			dst = append(dst, ':')
			dst = jsonx.AppendFloat(dst, durationMS(s.Dur))
		}
		dst = append(dst, `},`...)
	}
	return append(dst, a.frag[5]...), nil
}

// durationMS is d in milliseconds, rounded to the microsecond.
func durationMS(d time.Duration) float64 {
	return math.Round(d.Seconds()*1e3*1e3) / 1e3
}
