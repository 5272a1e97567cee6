package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/telemetry"
)

// someWord returns a keyword the test corpus resolves.
func someWord(t testing.TB, e *Engine) string {
	t.Helper()
	d := e.Corpus()
	return d.Places[0].Context.Words(d.Dict)[0]
}

// coldBody is the reference encoding: a Result assembled by hand (so it
// carries no memoised answer) through BuildResponse and encoding/json.
func coldBody(t *testing.T, e *Engine, req *QueryRequest, res *Result, requestID string, degraded any) []byte {
	t.Helper()
	resp := e.BuildResponse(req, &Result{SS: res.SS, Sel: res.Sel, Breakdown: res.Breakdown, Cache: res.Cache}, nil)
	resp.RequestID = requestID
	if degraded != nil {
		resp.Diagnostics["degraded"] = degraded
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAppendResponseMatchesBuildResponse: over algorithm × k × λ × spatial
// × keywords × K-clamp, the spliced body of a miss and of the repeat that
// reuses its memoised answer are both byte-for-byte json.Marshal of the
// cold BuildResponse — request ID, degradation report, raw keyword echo
// and dropped-keyword list included.
func TestAppendResponseMatchesBuildResponse(t *testing.T) {
	e := New(testData(t), Options{MaxK: 90})
	ctx := context.Background()
	word := someWord(t, e)
	degraded := map[string]any{"K_clamped_from": 400, "spatial": "exact→squared-grid <low budget>"}
	degradedJSON, err := json.Marshal(degraded)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, algo := range []string{"abp", "iadu"} {
		for _, k := range []int{1, 7} {
			for _, lambda := range []float64{0, 0.35, 1, math.Copysign(0, -1)} {
				for _, spatial := range []string{"squared", "exact", "radial"} {
					for _, kws := range [][]string{nil, {word}, {" " + word, "zzz-\"unknown\"", "<b>"}} {
						for _, K := range []int{60, 400} {
							n++
							requestID, deg, degJSON := "", any(nil), json.RawMessage(nil)
							if n%2 == 0 {
								requestID = fmt.Sprintf("req-%d", n)
							}
							if K == 400 {
								deg, degJSON = degraded, degradedJSON
							}
							for pass := 0; pass < 2; pass++ { // a miss, then the hit on its memoised answer
								req := e.NewRequest()
								req.X, req.Y = 31+float64(n%5), 57
								req.Algo, req.SmallK, req.Lambda, req.Spatial = algo, k, lambda, spatial
								req.Keywords, req.K = kws, K
								res, err := e.Query(ctx, req)
								if err != nil {
									t.Fatalf("%s k=%d λ=%v %s %q K=%d: %v", algo, k, lambda, spatial, kws, K, err)
								}
								body, err := e.AppendResponse([]byte("#"), req, res, nil, requestID, degJSON)
								if err != nil {
									t.Fatal(err)
								}
								want := append([]byte("#"), coldBody(t, e, req, res, requestID, deg)...)
								if !bytes.Equal(body, want) {
									t.Fatalf("%s k=%d λ=%v %s %q K=%d pass %d (%s):\nspliced %s\ncold    %s",
										algo, k, lambda, spatial, kws, K, pass, res.Cache, body, want)
								}
							}
						}
					}
				}
			}
		}
	}
	if st := e.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("grid exercised hits=%d misses=%d; need both", st.Hits, st.Misses)
	}
}

// TestAppendResponseTimings: with a trace, the splice adds elapsed_ms and
// a stage_ms object in sorted key order that is exactly the trace's
// completed stages; the body still parses into the public schema.
func TestAppendResponseTimings(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5
	tr := telemetry.NewTrace()
	ctx := telemetry.WithTrace(context.Background(), tr)
	res, err := e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := e.AppendResponse(nil, req, res, tr, "rid", nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("body does not parse: %v\n%s", err, body)
	}
	stages, _ := resp.Diagnostics["stage_ms"].(map[string]any)
	for _, want := range []string{telemetry.StageRetrieve, telemetry.StagePCS, telemetry.StagePSS, telemetry.StageSelect, telemetry.StageBuild} {
		if _, ok := stages[want]; !ok {
			t.Errorf("stage_ms missing %q: %v", want, stages)
		}
	}
	if _, ok := stages[telemetry.StageEncode]; ok {
		t.Error("stage_ms carries the encode span it is written under")
	}
	if _, ok := resp.Diagnostics["elapsed_ms"].(float64); !ok {
		t.Errorf("elapsed_ms missing: %v", resp.Diagnostics)
	}
	// Re-encoding the parsed value reproduces the body: key order and
	// number formatting are encoding/json's.
	again, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, body) {
		t.Errorf("body is not in encoding/json's canonical form:\n%s\n%s", body, again)
	}
}

// TestAnswerBuiltOncePerSelKey: the cold build is attributed to a
// build_response span, and only the request that ran it records one — a
// repeat of the same (entry, algorithm, k, λ) finds the answer rendered,
// while a new k on the same entry builds again.
func TestAnswerBuiltOncePerSelKey(t *testing.T) {
	e := New(testData(t), Options{})
	built := func(k int) bool {
		t.Helper()
		req := e.NewRequest()
		req.K, req.SmallK = 60, k
		tr := telemetry.NewTrace()
		res, err := e.Query(telemetry.WithTrace(context.Background(), tr), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.AppendResponse(nil, req, res, tr, "", nil); err != nil {
			t.Fatal(err)
		}
		_, ok := tr.Stages()[telemetry.StageBuild]
		return ok
	}
	if !built(5) {
		t.Error("first request recorded no build_response span")
	}
	if built(5) {
		t.Error("repeat request rebuilt a memoised answer")
	}
	if !built(6) {
		t.Error("new k on the same entry recorded no build_response span")
	}
	if st := e.Stats(); st.Builds != 1 {
		t.Errorf("score-set builds = %d, want 1", st.Builds)
	}
}

// TestAppendResponseRejectsNonFinite: a value encoding/json would refuse
// fails the splice the same way instead of emitting invalid JSON.
func TestAppendResponseRejectsNonFinite(t *testing.T) {
	e := New(testData(t), Options{})
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5
	res, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Result{SS: res.SS, Sel: res.Sel, Breakdown: res.Breakdown, Cache: res.Cache}
	bad.Breakdown.PC = math.NaN()
	if body, err := e.AppendResponse(nil, req, bad, nil, "", nil); err == nil {
		t.Fatalf("NaN breakdown encoded: %s", body)
	}
	if _, err := json.Marshal(e.BuildResponse(req, bad, nil)); err == nil {
		t.Fatal("encoding/json accepted the same value; the test premise is wrong")
	}
}

// TestQueryHitAllocs pins what is left of Engine.Query on a memoised
// answer: the interned keyword set, the cache key string and the Result.
func TestQueryHitAllocs(t *testing.T) {
	e := New(testData(t), Options{})
	ctx := context.Background()
	req := e.NewRequest()
	req.K, req.SmallK = 60, 5
	req.Keywords = []string{someWord(t, e)}
	if _, err := e.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Engine.Query on a hit = %v allocs/op, budget 4", allocs)
	}
}
