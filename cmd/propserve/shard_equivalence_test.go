package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"testing"
)

// volatileFields matches the parts of a response that differ between
// two servers answering the same requests: request IDs, timings and the
// server's start time.
var volatileFields = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"request_id":"[0-9a-f]*"`), `"request_id":""`},
	{regexp.MustCompile(`"stage_ms":\{[^}]*\}`), `"stage_ms":{}`},
	{regexp.MustCompile(`"(elapsed_ms|uptime_s|start_epoch)":[-0-9.e+]+`), `"$1":0`},
	{regexp.MustCompile(`"start_time":"[^"]*"`), `"start_time":""`},
}

func maskVolatile(body []byte) []byte {
	for _, v := range volatileFields {
		body = v.re.ReplaceAll(body, []byte(v.with))
	}
	return body
}

// startShardPair starts two servers with mutation and explain enabled:
// a plain one and one given -shards 4.
func startShardPair(t *testing.T) (plain, sharded *Server) {
	t.Helper()
	start := func(args ...string) *Server {
		bc, err := parseFlags(append([]string{"-enable-mutation", "-enable-explain", "-access-log=false"}, args...), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return testServerCfg(t, bc.cfg)
	}
	return start(), start("-shards", "4")
}

// sameResponse requires a and b, one request's answers from the plain
// and the -shards 4 server, to succeed with the same status and the same
// bytes once volatile fields are masked.
func sameResponse(t *testing.T, label string, a, b *httptest.ResponseRecorder) {
	t.Helper()
	if a.Code >= 300 || b.Code != a.Code {
		t.Fatalf("%s: status %d without shards, %d with: %s", label, a.Code, b.Code, b.Body.String())
	}
	if ma, mb := maskVolatile(a.Body.Bytes()), maskVolatile(b.Body.Bytes()); !bytes.Equal(ma, mb) {
		t.Errorf("%s diverges:\nwithout shards: %s\nwith shards:    %s", label, ma, mb)
	}
}

// TestShardEquivalenceHTTP: -shards and the "shards" field of a POST
// /v1/corpora body are accepted and ignored. A server started with
// -shards 4, and a corpus created on it with "shards": 4, answer
// /v1/search, /v1/batch, /v1/stats and /v1/corpora byte
// for byte like a server and a corpus without them, once request IDs and
// timings are masked — before and after the same mutation on both.
func TestShardEquivalenceHTTP(t *testing.T) {
	plain, sharded := startShardPair(t)
	post := func(path string, body, shardedBody any) {
		t.Helper()
		sameResponse(t, "POST "+path, postJSON(t, plain, path, body), postJSON(t, sharded, path, shardedBody))
	}
	read := func(path string) {
		t.Helper()
		sameResponse(t, "GET "+path, get(t, plain, path), get(t, sharded, path))
	}

	post("/v1/corpora",
		map[string]any{"name": "alpha", "places": 300, "seed": 9},
		map[string]any{"name": "alpha", "places": 300, "seed": 9, "shards": 4})

	corpus := plain.def.Eng.Corpus()
	word := corpus.Places[0].Context.Words(corpus.Dict)[0]
	var queries []string
	for _, K := range []int{40, 120} {
		for _, lg := range []string{"", "&lambda=0.4&gamma=0.7"} {
			for _, algo := range []string{"abp", "iadu"} {
				for _, spatial := range []string{"squared", "radial", "exact"} {
					queries = append(queries, fmt.Sprintf("x=50&y=50&K=%d&k=6%s&algo=%s&spatial=%s", K, lg, algo, spatial))
				}
			}
		}
	}
	queries = append(queries,
		"x=12&y=87&K=80&k=8",
		"x=50&y=50&K=60&k=6&keywords="+word,
		"x=50&y=50&K=60&k=6&keywords="+word+",beacon-eq",
	)
	// Distinct keys only: the batch's workers race, so two elements on
	// one key could read miss and coalesced in either order.
	batch := map[string]any{"queries": []map[string]any{
		{"x": 50, "y": 50, "K": 60, "k": 6},
		{"x": 30, "y": 70, "K": 90, "k": 9, "algo": "iadu", "keywords": []string{word}},
		{"K": 10, "k": 20},
	}}
	compare := func() {
		t.Helper()
		for _, prefix := range []string{"/v1", "/v1/corpora/alpha"} {
			for _, q := range queries {
				read(prefix + "/search?" + q)
			}
			post(prefix+"/batch", batch, batch)
		}
		read("/v1/stats")
		read("/v1/corpora")
	}
	compare()

	// The same batch on both servers' two corpora: an upsert cluster near
	// the query point and deletes of real places.
	for _, prefix := range []string{"/v1", "/v1/corpora/alpha"} {
		mutation := map[string]any{
			"upserts": []map[string]any{
				{"id": "eq:a", "x": 50.01, "y": 50, "context": []string{"beacon-eq", word}},
				{"id": "eq:b", "x": 49.99, "y": 50.02, "context": []string{"beacon-eq"}},
				{"id": "eq:c", "x": 12.3, "y": 86.9, "context": []string{word}},
			},
			"deletes": []string{corpus.Places[3].Label, corpus.Places[250].Label},
		}
		post(prefix+"/corpus", mutation, mutation)
	}
	compare()
}

// TestShardEquivalenceExplain: the per-iteration trace of /v1/explain
// is a function of the score set, so a -shards 4 server reproduces a
// plain server's trace byte for byte, on the default corpus and on one
// created with "shards": 4, before and after the same mutation on both.
func TestShardEquivalenceExplain(t *testing.T) {
	plain, sharded := startShardPair(t)
	sameResponse(t, "POST /v1/corpora",
		postJSON(t, plain, "/v1/corpora", map[string]any{"name": "alpha", "places": 300, "seed": 9}),
		postJSON(t, sharded, "/v1/corpora", map[string]any{"name": "alpha", "places": 300, "seed": 9, "shards": 4}))
	corpus := plain.def.Eng.Corpus()
	word := corpus.Places[0].Context.Words(corpus.Dict)[0]
	compare := func() {
		t.Helper()
		for _, prefix := range []string{"/v1", "/v1/corpora/alpha"} {
			for _, q := range []string{
				"x=50&y=50&K=80&k=8&algo=iadu",
				"x=50&y=50&K=80&k=8&algo=abp&spatial=radial",
			} {
				path := prefix + "/explain?" + q
				sameResponse(t, "GET "+path, get(t, plain, path), get(t, sharded, path))
			}
		}
	}
	compare()
	for _, prefix := range []string{"/v1", "/v1/corpora/alpha"} {
		mutation := map[string]any{
			"upserts": []map[string]any{
				{"id": "eq:a", "x": 50.01, "y": 50, "context": []string{"beacon-eq", word}},
			},
			"deletes": []string{corpus.Places[3].Label},
		}
		path := prefix + "/corpus"
		sameResponse(t, "POST "+path, postJSON(t, plain, path, mutation), postJSON(t, sharded, path, mutation))
	}
	compare()
}
