package main

// Tests of the one outer handler: the request ID, the status/bytes
// recorder, and the access-log line, request counters, slow-query line
// and retained trace that are all derived from one request record.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// linesSince decodes the JSON lines buf gained past offset.
func linesSince(t *testing.T, buf *syncBuffer, offset int) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()[offset:]), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %v (%q)", err, line)
		}
		out = append(out, m)
	}
	return out
}

func TestStatusRecorder(t *testing.T) {
	rec := httptest.NewRecorder()
	x := &exchange{ResponseWriter: rec}
	if x.status != 0 || x.bytes != 0 {
		t.Errorf("untouched exchange = %d/%d, want 0/0", x.status, x.bytes)
	}
	x.WriteHeader(http.StatusTeapot)
	x.WriteHeader(http.StatusOK) // superfluous; first wins
	x.Write([]byte("hello"))
	if x.status != http.StatusTeapot || rec.Code != http.StatusTeapot {
		t.Errorf("status = %d (wire %d), want 418", x.status, rec.Code)
	}
	if x.bytes != 5 || rec.Body.Len() != 5 {
		t.Errorf("bytes = %d (wire %d), want 5", x.bytes, rec.Body.Len())
	}

	// Implicit 200 on first Write.
	x2 := &exchange{ResponseWriter: httptest.NewRecorder()}
	x2.Write([]byte("x"))
	if x2.status != http.StatusOK {
		t.Errorf("implicit status = %d, want 200", x2.status)
	}
}

// TestRequestIDOnEveryPath: every response — 2xx, 4xx, shed 503 and a
// recovered panic's 500 — carries a generated ID or the client's
// well-formed one, and the access line names the same ID, status and
// body bytes.
func TestRequestIDOnEveryPath(t *testing.T) {
	var access syncBuffer
	s := testServerCfg(t, Config{AccessLog: &access, MaxInFlight: 1, QueueWait: 10 * time.Millisecond})
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	var fired atomic.Bool
	cases := []struct {
		name, path string
		want       int
		arrange    func() (undo func())
	}{
		{"ok", "/v1/search?K=60&k=5", http.StatusOK, nil},
		{"bad request", "/v1/search?k=0", http.StatusBadRequest, nil},
		{"not found", "/nope", http.StatusNotFound, nil},
		{"shed", "/v1/search?K=60&k=5", http.StatusServiceUnavailable, func() func() {
			release, err := s.def.Gate.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return release
		}},
		{"panic", "/v1/search?K=61&k=5", http.StatusInternalServerError, func() func() {
			fired.Store(false)
			return core.SetCheckpointHook(func(string) {
				if fired.CompareAndSwap(false, true) {
					panic("request-id probe")
				}
			})
		}},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		for _, supplied := range []string{"", "client-" + strings.ReplaceAll(c.name, " ", "-")} {
			undo := func() {}
			if c.arrange != nil {
				undo = c.arrange()
			}
			offset := len(access.String())
			req := httptest.NewRequest(http.MethodGet, c.path, nil)
			if supplied != "" {
				req.Header.Set("X-Request-ID", supplied)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			undo()
			if rec.Code != c.want {
				t.Fatalf("%s: status %d, want %d: %s", c.name, rec.Code, c.want, rec.Body.String())
			}
			id := rec.Header().Get("X-Request-ID")
			switch {
			case supplied != "" && id != supplied:
				t.Errorf("%s: client ID %q answered as %q", c.name, supplied, id)
			case supplied == "" && !hex16.MatchString(id):
				t.Errorf("%s: generated ID %q, want 16 hex characters", c.name, id)
			case supplied == "" && seen[id]:
				t.Errorf("%s: generated ID %q reused", c.name, id)
			}
			seen[id] = true
			lines := linesSince(t, &access, offset)
			if len(lines) != 1 {
				t.Fatalf("%s: %d access lines, want 1", c.name, len(lines))
			}
			if lines[0]["request_id"] != id || lines[0]["status"] != float64(c.want) || lines[0]["bytes"] != float64(rec.Body.Len()) {
				t.Errorf("%s: access line %v, want request_id %q status %d bytes %d", c.name, lines[0], id, c.want, rec.Body.Len())
			}
		}
	}
}

func TestAccessLogWritesStructuredLine(t *testing.T) {
	var access syncBuffer
	s := testServerCfg(t, Config{AccessLog: &access})
	req := httptest.NewRequest(http.MethodGet, "/nope?K=10&k=2", nil)
	req.RemoteAddr = "192.0.2.7:4242"
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	lines := linesSince(t, &access, 0)
	if len(lines) != 1 {
		t.Fatalf("%d access lines, want 1", len(lines))
	}
	e := lines[0]
	var keys []string
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// A route that touches no corpus carries exactly these keys.
	if got, want := strings.Join(keys, ","), "bytes,duration_ms,method,path,query,remote,request_id,status,time"; got != want {
		t.Errorf("keys = %s, want %s", got, want)
	}
	if e["method"] != "GET" || e["path"] != "/nope" || e["query"] != "K=10&k=2" || e["remote"] != "192.0.2.7:4242" {
		t.Errorf("entry = %v", e)
	}
	if e["status"] != float64(http.StatusNotFound) || e["bytes"] != float64(rec.Body.Len()) {
		t.Errorf("status/bytes = %v/%v, want 404/%d", e["status"], e["bytes"], rec.Body.Len())
	}
	if e["request_id"] != rec.Header().Get("X-Request-ID") {
		t.Errorf("log id %v != header id %q", e["request_id"], rec.Header().Get("X-Request-ID"))
	}
	if d, _ := e["duration_ms"].(float64); d < 0 {
		t.Errorf("duration_ms = %v", e["duration_ms"])
	}
	if _, err := time.Parse(time.RFC3339Nano, fmt.Sprint(e["time"])); err != nil {
		t.Errorf("time %v: %v", e["time"], err)
	}
}

// TestAccessLogRecordFields: cache, corpus_epoch, corpus and trace_id are
// taken from the request record — present where the request produced
// them, absent where it did not.
func TestAccessLogRecordFields(t *testing.T) {
	var access syncBuffer
	cfg := Config{AccessLog: &access, EnableMutation: true, TraceSample: 1.1}
	s := testServerCfg(t, cfg)
	if rec := postJSON(t, s, "/v1/corpora", map[string]any{"name": "beta", "places": 200}); rec.Code != http.StatusCreated {
		t.Fatalf("create beta = %d: %s", rec.Code, rec.Body.String())
	}
	upsert := map[string]any{"upserts": []map[string]any{{"id": "poi:x", "x": 1, "y": 2, "context": []string{"w"}}}}
	batch := map[string]any{"queries": []map[string]any{{"K": 40, "k": 4}}}
	for _, c := range []struct {
		name, method, path string
		body               any
		want               map[string]any // "-" means absent; "*" any non-empty string
	}{
		{"miss", "GET", "/v1/search?K=60&k=5", nil,
			map[string]any{"cache": "miss", "corpus_epoch": float64(0), "corpus": "default", "trace_id": "*"}},
		{"hit", "GET", "/v1/search?K=60&k=5", nil,
			map[string]any{"cache": "hit", "corpus_epoch": float64(0), "corpus": "default", "trace_id": "*"}},
		{"scoped", "GET", "/v1/corpora/beta/search?K=40&k=4", nil,
			map[string]any{"cache": "miss", "corpus_epoch": float64(0), "corpus": "beta", "trace_id": "*"}},
		{"bad request", "GET", "/v1/search?k=0", nil,
			map[string]any{"cache": "-", "corpus_epoch": "-", "corpus": "default", "trace_id": "*"}},
		{"unknown corpus", "GET", "/v1/corpora/nope/search?K=40&k=4", nil,
			map[string]any{"cache": "-", "corpus_epoch": "-", "corpus": "-", "trace_id": "-"}},
		{"corpus write", "POST", "/v1/corpus", upsert,
			map[string]any{"cache": "-", "corpus_epoch": float64(1), "corpus": "default", "trace_id": "*"}},
		{"batch", "POST", "/v1/corpora/beta/batch", batch,
			map[string]any{"cache": "-", "corpus_epoch": "-", "corpus": "beta", "trace_id": "-"}},
		{"slo", "GET", "/v1/slo", nil,
			map[string]any{"cache": "-", "corpus_epoch": "-", "corpus": "default", "trace_id": "-"}},
		{"scoped slo", "GET", "/v1/corpora/beta/slo", nil,
			map[string]any{"cache": "-", "corpus_epoch": "-", "corpus": "beta", "trace_id": "-"}},
		{"healthz", "GET", "/healthz", nil,
			map[string]any{"cache": "-", "corpus_epoch": "-", "corpus": "-", "trace_id": "-"}},
	} {
		offset := len(access.String())
		if c.method == "POST" {
			postJSON(t, s, c.path, c.body)
		} else {
			get(t, s, c.path)
		}
		lines := linesSince(t, &access, offset)
		if len(lines) != 1 {
			t.Fatalf("%s: %d access lines, want 1", c.name, len(lines))
		}
		for key, want := range c.want {
			got, present := lines[0][key]
			switch want {
			case "-":
				if present {
					t.Errorf("%s: %s = %v, want absent", c.name, key, got)
				}
			case "*":
				if s, _ := got.(string); s == "" {
					t.Errorf("%s: %s = %v, want a value", c.name, key, got)
				}
			default:
				if got != want {
					t.Errorf("%s: %s = %v (present %v), want %v", c.name, key, got, present, want)
				}
			}
		}
	}
}

// TestSharedLogWriterNoRace: with no SlowQueryLog, slow-query lines fall
// back to the access-log writer; with -trace-export on the same writer
// too, three kinds of line share one bytes.Buffer under concurrent
// searches. Every write goes through one lock, so under -race nothing is
// reported and every line parses.
func TestSharedLogWriterNoRace(t *testing.T) {
	var buf bytes.Buffer
	s := testServerCfg(t, Config{AccessLog: &buf, SlowQuery: time.Nanosecond, TraceExport: &buf, TraceSample: 1.1})
	const goroutines, searches = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < searches; i++ {
				path := fmt.Sprintf("/v1/search?K=40&k=4&x=%d", 10+(g+i)%5)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()
	var access, slow, traces int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved or torn line: %v (%q)", err, line)
		}
		switch {
		case m["method"] != nil:
			access++
		case m["threshold_ms"] != nil:
			slow++
		case m["spans"] != nil:
			traces++
		}
	}
	const n = goroutines * searches
	if access != n || slow != n || traces != n {
		t.Errorf("access/slow/trace lines = %d/%d/%d, want %d each", access, slow, traces, n)
	}
}

// FuzzRequestHeaders drives the request-header trust boundary —
// X-Request-ID and traceparent — through the whole server. Nothing
// panics; a well-formed ID is echoed unchanged and anything else is
// replaced by 16 hex characters; the echoed traceparent always parses,
// and it continues the caller's trace whenever the caller's parses.
func FuzzRequestHeaders(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""},
		{"client-id-42", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"x y", "garbage"},
		{strings.Repeat("z", 65), "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"a.b_C-9", " 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01 "},
		{"dollar$", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"a\r\nb", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"},
	} {
		f.Add(seed[0], seed[1])
	}
	s := testServerCfg(f, Config{Logf: func(string, ...any) {}})
	valid := regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	f.Fuzz(func(t *testing.T, id, traceparent string) {
		for _, path := range []string{"/healthz", "/v1/search?K=20&k=2"} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.Header.Set("X-Request-ID", id)
			req.Header.Set("Traceparent", traceparent)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
			}
			got := rec.Header().Get("X-Request-ID")
			if valid.MatchString(id) {
				if got != id {
					t.Fatalf("%s: well-formed ID %q answered as %q", path, id, got)
				}
			} else if !hex16.MatchString(got) {
				t.Fatalf("%s: malformed ID %q replaced by %q, want 16 hex characters", path, id, got)
			}
			echoed := rec.Header().Get("Traceparent")
			if echoed == "" {
				continue // routes outside the request lifecycle start no trace
			}
			tid, _, ok := telemetry.ParseTraceParent(echoed)
			if !ok {
				t.Fatalf("%s: echoed traceparent %q does not parse", path, echoed)
			}
			if in, _, inOK := telemetry.ParseTraceParent(traceparent); inOK && tid != in {
				t.Fatalf("%s: caller trace %s not continued: echoed %q", path, in, echoed)
			}
		}
	})
}

// TestObserversAgree: for each kind of request, the access line, the
// slow-query line, the retained trace, propserve_requests_total and the
// response agree on request ID, status, corpus, cache verdict, epoch and
// trace ID.
func TestObserversAgree(t *testing.T) {
	var access, slow syncBuffer
	s := testServerCfg(t, Config{
		AccessLog: &access, SlowQuery: time.Nanosecond, SlowQueryLog: &slow,
		TraceSample: 1.1, EnableExplain: true, EnableMutation: true,
		MaxInFlight: 1, QueueWait: 20 * time.Millisecond, BatchWorkers: 1,
	})
	requests := func() map[string]float64 {
		out := map[string]float64{}
		for k, v := range metricsSeries(t, s) {
			if strings.HasPrefix(k, `propserve_requests_total{code="`) {
				out[strings.TrimSuffix(strings.TrimPrefix(k, `propserve_requests_total{code="`), `"}`)], _ = strconv.ParseFloat(v, 64)
			}
		}
		return out
	}
	traceByID := func(id string) map[string]any {
		rec := get(t, s, "/v1/traces/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("trace %s: %d", id, rec.Code)
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// agree checks the facts two observers report. The cache verdict and
	// epoch are optional (an access line carries them for a success only,
	// a trace omits an empty cache), so they must agree where both report
	// them; every other key must be reported, and agree, by both.
	agree := func(name, what string, a, b map[string]any, keys ...string) {
		for _, k := range keys {
			av, aok := a[k]
			bv, bok := b[k]
			if (k == "cache" || k == "corpus_epoch") && (!aok || !bok) {
				continue
			}
			if !aok || !bok || fmt.Sprint(av) != fmt.Sprint(bv) {
				t.Errorf("%s: %s disagree on %s: %v vs %v", name, what, k, av, bv)
			}
		}
	}
	upsert := map[string]any{"upserts": []map[string]any{{"id": "poi:agree", "x": 3, "y": 4, "context": []string{"w"}}}}
	batch := map[string]any{"queries": []map[string]any{{"K": 50, "k": 5}, {"K": 50, "k": 5, "x": 20}}}
	for _, c := range []struct {
		name, method, path string
		body               any
		status             int
		corpus             string // "" for none
		cache              string // "" for none
		slowLines          int
		traced             bool // the request's own trace is retained
		hold               bool // hold the only admission slot: the request is shed
	}{
		{name: "miss", method: "GET", path: "/v1/search?K=60&k=5", status: 200, corpus: "default", cache: "miss", slowLines: 1, traced: true},
		{name: "hit", method: "GET", path: "/v1/search?K=60&k=5", status: 200, corpus: "default", cache: "hit", slowLines: 1, traced: true},
		{name: "400", method: "GET", path: "/v1/search?k=0", status: 400, corpus: "default", traced: true},
		{name: "unknown corpus", method: "GET", path: "/v1/corpora/nope/search?K=60&k=5", status: 404},
		{name: "shed", method: "GET", path: "/v1/search?K=60&k=5", status: 503, corpus: "default", traced: true, hold: true},
		{name: "explain", method: "GET", path: "/v1/explain?K=60&k=5", status: 200, corpus: "default", cache: "bypass", slowLines: 1, traced: true},
		{name: "batch", method: "POST", path: "/v1/batch", body: batch, status: 200, corpus: "default", slowLines: 2},
		{name: "corpus write", method: "POST", path: "/v1/corpus", body: upsert, status: 200, corpus: "default", traced: true},
	} {
		before := requests()
		accessAt, slowAt := len(access.String()), len(slow.String())
		var release func()
		if c.hold {
			var err error
			if release, err = s.def.Gate.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		var rec *httptest.ResponseRecorder
		if c.method == "POST" {
			rec = postJSON(t, s, c.path, c.body)
		} else {
			rec = get(t, s, c.path)
		}
		if release != nil {
			release()
		}
		after := requests()
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.name, rec.Code, c.status, rec.Body.String())
		}
		id := rec.Header().Get("X-Request-ID")

		// The counter: this request, plus the 200 of the scrape before it.
		code := strconv.Itoa(c.status)
		want := 1.0
		if c.status == 200 {
			want = 2
		}
		if d := after[code] - before[code]; d != want {
			t.Errorf("%s: requests_total{code=%q} rose by %v, want %v", c.name, code, d, want)
		}

		// The access line.
		lines := linesSince(t, &access, accessAt)
		if len(lines) < 1 || lines[0]["request_id"] != id {
			t.Fatalf("%s: access lines %v, want this request's first", c.name, lines)
		}
		al := lines[0]
		if al["status"] != float64(c.status) || fmt.Sprint(al["corpus"]) != fmt.Sprint(orNil(c.corpus)) ||
			fmt.Sprint(al["cache"]) != fmt.Sprint(orNil(c.cache)) {
			t.Errorf("%s: access line %v, want status %d corpus %q cache %q", c.name, al, c.status, c.corpus, c.cache)
		}
		if c.status == 200 && c.path != "/v1/batch" {
			if _, ok := al["corpus_epoch"]; !ok {
				t.Errorf("%s: access line has no corpus_epoch: %v", c.name, al)
			}
		}

		// The retained trace of a request that owns one.
		traceID, _ := al["trace_id"].(string)
		if c.traced != (traceID != "") {
			t.Fatalf("%s: access trace_id %q, want retained = %v", c.name, traceID, c.traced)
		}
		if c.traced {
			tr := traceByID(traceID)
			agree(c.name, "access line and trace", al, tr, "request_id", "status", "corpus", "cache", "corpus_epoch", "trace_id")
		}

		// The slow-query lines: the request's own, or one per batch element.
		sl := linesSince(t, &slow, slowAt)
		if len(sl) != c.slowLines {
			t.Fatalf("%s: %d slow lines, want %d", c.name, len(sl), c.slowLines)
		}
		for _, line := range sl {
			agree(c.name, "access and slow lines", al, line, "request_id", "corpus")
			if c.traced {
				agree(c.name, "access and slow lines", al, line, "cache", "corpus_epoch", "trace_id")
			}
			// Every slow line names a retained trace that agrees with it.
			tid, _ := line["trace_id"].(string)
			if tid == "" {
				t.Fatalf("%s: slow line without trace_id: %v", c.name, line)
			}
			agree(c.name, "slow line and trace", line, traceByID(tid), "request_id", "corpus", "cache", "corpus_epoch", "trace_id")
		}
	}
}

// orNil maps "" to nil, the decoded value of an omitted key.
func orNil(s string) any {
	if s == "" {
		return nil
	}
	return s
}
