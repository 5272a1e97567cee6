package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// hitPathServer is the BENCHMARK.json hit_zipf configuration in process:
// 1 500 places, K=200, k=10, a keyword query, SLO tracking on and trace
// retention sampled out (negative TraceSample keeps only the tail rules,
// which a fast 200 never trips). The returned target has been requested
// once, so every further request is a score-set hit on a memoised answer.
func hitPathServer(tb testing.TB) (*Server, string) {
	tb.Helper()
	dcfg := dataset.DBpediaLike(20210620)
	dcfg.Places = 1500
	d, err := dataset.Generate(dcfg)
	if err != nil {
		tb.Fatal(err)
	}
	qs, err := d.GenQueries(1, 11, 20210620)
	if err != nil {
		tb.Fatal(err)
	}
	s := NewServer(d, Config{Logf: tb.Logf, TraceSample: -1})
	v := url.Values{}
	v.Set("x", "50")
	v.Set("y", "50")
	v.Set("keywords", strings.Join(qs[0].Keywords.Words(d.Dict), ","))
	v.Set("K", "200")
	v.Set("k", "10")
	target := "/v1/search?" + v.Encode()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("warm-up status %d: %s", rec.Code, rec.Body.String())
	}
	return s, target
}

// BenchmarkSearchHitHandler is the number the hit path is judged by: one
// repeated /v1/search through the full handler stack into a recorder.
func BenchmarkSearchHitHandler(b *testing.B) {
	s, target := hitPathServer(b)
	req := httptest.NewRequest(http.MethodGet, target, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// batchResponse and batchItem decode a /v1/batch envelope for the tests;
// the server writes the envelope by hand around pre-encoded elements and
// has no struct of this shape.
type batchResponse struct {
	RequestID string      `json:"request_id,omitempty"`
	Count     int         `json:"count"`
	Results   []batchItem `json:"results"`
}

type batchItem struct {
	Index    int                   `json:"index"`
	Status   int                   `json:"status"`
	Error    string                `json:"error,omitempty"`
	Response *engine.QueryResponse `json:"response,omitempty"`
}

// canon re-encodes a response body without the fields stripVolatile
// names, so two bodies can be compared as bytes.
func canon(t *testing.T, body []byte) string {
	t.Helper()
	b, err := json.Marshal(stripVolatile(t, body))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHitMissColdBodiesAgree: over algorithm × k × λ × spatial × keywords
// × K-clamp, the /v1/search body of a miss, of the hit that reuses its
// memoised answer, of the matching /v1/batch element, and json.Marshal of
// a cold BuildResponse on a hand-built Result all agree once the volatile
// fields are stripped.
func TestHitMissColdBodiesAgree(t *testing.T) {
	s := testServerCfg(t, Config{MaxK: 90})
	word := s.def.Eng.Corpus().Places[0].Context.Words(s.def.Eng.Corpus().Dict)[0]
	n := 0
	for _, algo := range []string{"abp", "iadu"} {
		for _, k := range []int{3, 8} {
			for _, lambda := range []float64{0.2, 0.5} {
				for _, spatial := range []string{"squared", "exact", "radial"} {
					for _, kws := range [][]string{nil, {word, "zzz-unknown"}} {
						for _, K := range []int{60, 400} {
							n++
							x := 30 + 0.125*float64(n) // a location of its own, so the first request is a miss
							v := url.Values{}
							v.Set("x", fmt.Sprint(x))
							v.Set("K", fmt.Sprint(K))
							v.Set("k", fmt.Sprint(k))
							v.Set("lambda", fmt.Sprint(lambda))
							v.Set("algo", algo)
							v.Set("spatial", spatial)
							elem := map[string]any{"x": x, "K": K, "k": k, "lambda": lambda, "algo": algo, "spatial": spatial}
							if kws != nil {
								v.Set("keywords", strings.Join(kws, ","))
								elem["keywords"] = kws
							}
							name := v.Encode()

							var bodies []string
							for _, want := range []string{"miss", "hit"} {
								rec := get(t, s, "/v1/search?"+name)
								if rec.Code != http.StatusOK {
									t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
								}
								if !strings.Contains(rec.Body.String(), `"cache":"`+want+`"`) {
									t.Fatalf("%s: want a %s: %s", name, want, rec.Body.String())
								}
								bodies = append(bodies, canon(t, rec.Body.Bytes()))
							}
							if bodies[0] != bodies[1] {
								t.Fatalf("%s: hit differs from miss:\nmiss %s\nhit  %s", name, bodies[0], bodies[1])
							}

							// Cold: the same request through the engine, its Result
							// copied field by field so it carries no memoised answer.
							req, err := s.def.Eng.RequestFromValues(v)
							if err != nil {
								t.Fatal(err)
							}
							res, err := s.def.Eng.Query(context.Background(), req)
							if err != nil {
								t.Fatal(err)
							}
							resp := s.def.Eng.BuildResponse(req, &engine.Result{SS: res.SS, Sel: res.Sel, Breakdown: res.Breakdown, Cache: res.Cache}, nil)
							if from := req.ClampedFrom(); from > 0 {
								resp.Diagnostics["degraded"] = map[string]any{"K_clamped_from": from}
							}
							cold, err := json.Marshal(resp)
							if err != nil {
								t.Fatal(err)
							}
							if got := canon(t, cold); got != bodies[1] {
								t.Fatalf("%s: cold BuildResponse differs from the served hit:\ncold %s\nhit  %s", name, got, bodies[1])
							}

							rec := postJSON(t, s, "/v1/batch", map[string]any{"queries": []any{elem}})
							var env struct {
								Results []struct {
									Status   int             `json:"status"`
									Response json.RawMessage `json:"response"`
								} `json:"results"`
							}
							if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || len(env.Results) != 1 || env.Results[0].Status != http.StatusOK {
								t.Fatalf("%s: batch: %v: %s", name, err, rec.Body.String())
							}
							rec = get(t, s, "/v1/search?"+name)
							if got, want := canon(t, env.Results[0].Response), canon(t, rec.Body.Bytes()); got != want {
								t.Fatalf("%s: batch element differs from search:\nbatch  %s\nsearch %s", name, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestKeywordSpellingsShareAnswerNotEcho is the aliasing guard: a query
// with an extra unknown keyword resolves to the same keyword set — hence
// the same score set and memoised answer — as the query without it, yet
// each response must echo its own keywords and dropped list.
func TestKeywordSpellingsShareAnswerNotEcho(t *testing.T) {
	s := testServer(t)
	word := s.def.Eng.Corpus().Places[0].Context.Words(s.def.Eng.Corpus().Dict)[0]
	fetch := func(keywords string) engine.QueryResponse {
		t.Helper()
		rec := get(t, s, "/v1/search?K=60&k=5&keywords="+url.QueryEscape(keywords))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var resp engine.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	noisy := fetch(word + ",zzz-unknown")
	plain := fetch(word)
	again := fetch(word + ",zzz-unknown")

	if plain.Diagnostics["cache"] != "hit" || again.Diagnostics["cache"] != "hit" {
		t.Fatalf("spellings did not share a score set: cache = %v, %v", plain.Diagnostics["cache"], again.Diagnostics["cache"])
	}
	if got := plain.Query.Keywords; len(got) != 1 || got[0] != word {
		t.Errorf("plain query echoes keywords %v, want [%s]", got, word)
	}
	if dropped, ok := plain.Diagnostics["keywords_dropped"]; ok {
		t.Errorf("plain query reports dropped keywords %v", dropped)
	}
	for name, resp := range map[string]engine.QueryResponse{"first": noisy, "repeat": again} {
		if got := resp.Query.Keywords; len(got) != 2 || got[1] != "zzz-unknown" {
			t.Errorf("%s noisy query echoes keywords %v", name, got)
		}
		if dropped, _ := resp.Diagnostics["keywords_dropped"].([]any); len(dropped) != 1 || dropped[0] != "zzz-unknown" {
			t.Errorf("%s noisy query keywords_dropped = %v", name, resp.Diagnostics["keywords_dropped"])
		}
	}
	a, _ := json.Marshal(noisy.Results)
	b, _ := json.Marshal(plain.Results)
	if !bytes.Equal(a, b) {
		t.Errorf("results differ between spellings:\n%s\n%s", a, b)
	}
}

// TestNoStaleAnswerSurvivesSweep: 8 readers hammer one location, rotating
// (algorithm, k, λ) through more combinations than the answer memo holds,
// while a writer publishes corpus epochs next to it. Every response must
// be the answer of the epoch it reports: its result IDs and contexts are
// checked against a fresh engine over that epoch's corpus, which has
// memoised nothing.
func TestNoStaleAnswerSurvivesSweep(t *testing.T) {
	s := testServerCfg(t, Config{EnableMutation: true, MaxInFlight: 16, MaxQueue: 64})
	type combo struct {
		algo   string
		k      int
		lambda float64
	}
	var combos []combo
	for _, algo := range []string{"abp", "iadu"} {
		for k := 1; k <= 12; k++ {
			for _, lambda := range []float64{0.2, 0.5, 0.8} {
				combos = append(combos, combo{algo, k, lambda})
			}
		}
	}
	if memo := 64; len(combos) <= memo { // the engine's per-entry selection memo bound
		t.Fatalf("%d combinations do not overflow the %d-answer memo", len(combos), memo)
	}
	target := func(c combo) string {
		return fmt.Sprintf("/v1/search?x=40&y=40&K=50&k=%d&lambda=%v&algo=%s", c.k, c.lambda, c.algo)
	}

	type observed struct {
		c    combo
		body []byte
	}
	const readers, epochs, perEpoch = 8, 6, 24
	var (
		served atomic.Int64
		done   atomic.Bool
		wg     sync.WaitGroup
		seen   [readers][]observed
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !done.Load(); i += readers {
				c := combos[i%len(combos)]
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target(c), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: status %d: %s", r, rec.Code, rec.Body.String())
					return
				}
				seen[r] = append(seen[r], observed{c, rec.Body.Bytes()})
				served.Add(1)
			}
		}(r)
	}

	// The writer moves places onto the query point, so each epoch changes
	// the answer; it publishes the next epoch once the readers have been
	// served perEpoch more responses.
	corpora := map[uint64]*dataset.Dataset{}
	corpora[0], _ = s.def.Eng.Snapshot()
	next := int64(perEpoch)
	for e := 1; e <= epochs; e++ {
		for served.Load() < next && !t.Failed() {
			runtime.Gosched()
		}
		rec := postJSON(t, s, "/v1/corpus", map[string]any{"upserts": []map[string]any{{
			"id": fmt.Sprintf("sweep:%d", e), "x": 40 + 0.01*float64(e), "y": 40,
			"context": []string{"sweep", fmt.Sprintf("epoch-%d", e)},
		}}})
		if rec.Code != http.StatusOK {
			t.Fatalf("mutation %d: %d: %s", e, rec.Code, rec.Body.String())
		}
		d, epoch := s.def.Eng.Snapshot()
		corpora[epoch] = d
		next = served.Load() + perEpoch
	}
	for final := served.Load() + perEpoch; served.Load() < final && !t.Failed(); {
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()

	type placeKey struct {
		ID      string
		Context []string
	}
	places := func(rs []engine.PlaceResult) string {
		out := make([]placeKey, len(rs))
		for i, p := range rs {
			out[i] = placeKey{p.ID, p.Context}
		}
		b, _ := json.Marshal(out)
		return string(b)
	}
	fresh := map[uint64]*engine.Engine{}
	epochsSeen := map[uint64]bool{}
	for r := range seen {
		for _, o := range seen[r] {
			var resp engine.QueryResponse
			if err := json.Unmarshal(o.body, &resp); err != nil {
				t.Fatalf("reader %d: %v: %s", r, err, o.body)
			}
			epoch := uint64(resp.Diagnostics["corpus_epoch"].(float64))
			epochsSeen[epoch] = true
			d, ok := corpora[epoch]
			if !ok {
				t.Fatalf("response reports epoch %d, which the writer never published", epoch)
			}
			if fresh[epoch] == nil {
				fresh[epoch] = engine.New(d, engine.Options{InitialEpoch: epoch})
			}
			eng := fresh[epoch]
			req := eng.NewRequest()
			req.X, req.Y, req.K = 40, 40, 50
			req.SmallK, req.Lambda, req.Algo = o.c.k, o.c.lambda, o.c.algo
			res, err := eng.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			want := eng.BuildResponse(req, &engine.Result{SS: res.SS, Sel: res.Sel, Breakdown: res.Breakdown, Cache: res.Cache}, nil)
			if got, want := places(resp.Results), places(want.Results); got != want {
				t.Fatalf("epoch %d %+v: served %s, fresh engine %s", epoch, o.c, got, want)
			}
		}
	}
	if len(epochsSeen) < 3 {
		t.Errorf("readers observed only epochs %v; the race did not interleave", epochsSeen)
	}
}

// TestSearchHitHandlerAllocs is the allocation budget of a memoised hit
// through the whole handler stack (259 allocs/op before the answer memo).
// The recorder itself accounts for 7 of them. A -race build moves 3 more
// values to the heap.
func TestSearchHitHandlerAllocs(t *testing.T) {
	s, target := hitPathServer(t)
	req := httptest.NewRequest(http.MethodGet, target, nil)
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	budget := 55.0
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				budget += 3
			}
		}
	}
	if allocs > budget {
		t.Errorf("hit handler = %v allocs/op, budget %v", allocs, budget)
	}
}

// TestServerTimingAttributesColdBuild: the request that builds an answer
// reports the build in Server-Timing and stage_ms; a request served the
// memoised answer reports neither.
func TestServerTimingAttributesColdBuild(t *testing.T) {
	s := testServer(t)
	for i, wantBuild := range []bool{true, false} {
		rec := get(t, s, "/v1/search?K=60&k=6")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		st := rec.Header().Get("Server-Timing")
		_, entries := parseServerTiming(t, st)
		if _, got := entries["build"]; got != wantBuild {
			t.Errorf("request %d: Server-Timing %q, build entry present = %v, want %v", i, st, got, wantBuild)
		}
		if _, ok := entries["render"]; !ok {
			t.Errorf("request %d: Server-Timing %q has no render entry", i, st)
		}
		var resp engine.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		stages, _ := resp.Diagnostics["stage_ms"].(map[string]any)
		if _, got := stages["build_response"]; got != wantBuild {
			t.Errorf("request %d: stage_ms %v, build_response present = %v, want %v", i, stages, got, wantBuild)
		}
	}
}
