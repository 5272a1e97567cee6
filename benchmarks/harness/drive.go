package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmarks/workload"
)

// clients is the closed-loop concurrency: API callers that each wait for
// their reply, on one keep-alive connection each.
const clients = 2

// parseEvery is the sampling stride of full response parsing: every
// parseEvery-th response per client is decoded and validated, and feeds
// the public-surface layer metrics; the rest get only the cheap checks.
const parseEvery = 50

// searchBody is the part of a /v1/search response the harness reads.
type searchBody struct {
	HPF         float64 `json:"hpf"`
	Diagnostics struct {
		ElapsedMS float64            `json:"elapsed_ms"`
		StageMS   map[string]float64 `json:"stage_ms"`
	} `json:"diagnostics"`
	Results []struct {
		ID string `json:"id"`
	} `json:"results"`
}

func (b *searchBody) ids() []string {
	ids := make([]string, len(b.Results))
	for i, r := range b.Results {
		ids[i] = r.ID
	}
	return ids
}

// answer is a query's reference answer: result IDs in rank order and HPF.
type answer struct {
	ids []string
	hpf float64
}

func (a answer) equal(b answer) bool {
	if a.hpf != b.hpf || len(a.ids) != len(b.ids) {
		return false
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] {
			return false
		}
	}
	return true
}

// sample is one completed (or failed) operation.
type sample struct {
	kind workload.Kind
	// done is the completion time since the driver was created.
	done time.Duration
	lat  time.Duration
	// status is the HTTP status, 0 on a transport error.
	status int
	bytes  int
	// invalid marks a 200 whose body failed validation.
	invalid bool
	// parsed is set on sampled searches; appMS (Server-Timing app;dur) on
	// those and on every write.
	parsed *searchBody
	appMS  float64
}

// driver issues a workload's sequence against one server.
type driver struct {
	base   string
	seq    *workload.Sequence
	spec   workload.Spec
	client *http.Client
	t0     time.Time
	// next is the index of the next operation of the sequence; done counts
	// completed operations of any outcome; acked counts 200-acked writes.
	next, done, acked atomic.Int64
	// expect holds the reference answers by pool index (nil entries
	// unknown); it is consulted only while checkExpect is set.
	expect      []*answer
	checkExpect bool
}

func newDriver(base string, seq *workload.Sequence, spec workload.Spec) *driver {
	return &driver{
		base: base, seq: seq, spec: spec, t0: time.Now(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: clients,
				MaxConnsPerHost:     clients,
				DisableCompression:  true,
			},
		},
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// do issues one operation and validates the reply. full forces the
// response to be parsed.
func (d *driver) do(ctx context.Context, op workload.Op, buf *bytes.Buffer, full bool) sample {
	s := sample{kind: op.Kind}
	method, body := http.MethodGet, io.Reader(nil)
	if op.Kind == workload.Write {
		method, body = http.MethodPost, strings.NewReader(op.Body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+op.Target, body)
	if err != nil {
		s.done = time.Since(d.t0)
		return s
	}
	if op.Kind == workload.Write {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(start)
	s.done = time.Since(d.t0)
	d.done.Add(1)
	if err != nil {
		return s
	}
	s.status, s.bytes = resp.StatusCode, buf.Len()
	if s.status != http.StatusOK {
		return s
	}
	if op.Kind == workload.Write {
		// Writes are few, so every one of them is read in full.
		d.acked.Add(1)
		s.invalid = !bytes.Contains(buf.Bytes(), []byte(`"epoch":`))
		s.appMS = ParseServerTiming(resp.Header.Get("Server-Timing"))["app"]
		return s
	}
	s.invalid = !bytes.Contains(buf.Bytes(), []byte(`"results":[{`))
	if !full || s.invalid {
		return s
	}
	s.appMS = ParseServerTiming(resp.Header.Get("Server-Timing"))["app"]
	var sb searchBody
	if err := json.Unmarshal(buf.Bytes(), &sb); err != nil {
		s.invalid = true
		return s
	}
	s.parsed = &sb
	s.invalid = !d.validSearch(op, &sb)
	return s
}

// validSearch checks a parsed search response: exactly k distinct
// results, and — while the pool's reference answers apply — the same IDs
// and HPF as the in-process oracle gave.
func (d *driver) validSearch(op workload.Op, sb *searchBody) bool {
	if len(sb.Results) != d.spec.SmallK {
		return false
	}
	seen := make(map[string]bool, len(sb.Results))
	for _, r := range sb.Results {
		if r.ID == "" || seen[r.ID] {
			return false
		}
		seen[r.ID] = true
	}
	if d.checkExpect && op.Pool >= 0 && op.Pool < len(d.expect) && d.expect[op.Pool] != nil {
		return d.expect[op.Pool].equal(answer{ids: sb.ids(), hpf: sb.HPF})
	}
	return true
}

// runOpts bounds one drive call: it ends at whichever of the deadline and
// the operation count comes first (zero values: unbounded).
type runOpts struct {
	until time.Time
	ops   int64
	// searchesOnly skips the sequence's writes.
	searchesOnly bool
}

// run drives the sequence from clients concurrent closed loops and
// returns every sample, grouped by client.
func (d *driver) run(ctx context.Context, o runOpts) []sample {
	var issued atomic.Int64
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for count := 1; ctx.Err() == nil; count++ {
				if !o.until.IsZero() && !time.Now().Before(o.until) {
					return
				}
				if o.ops > 0 && issued.Add(1) > o.ops {
					return
				}
				op := d.seq.Op(int(d.next.Add(1) - 1))
				for o.searchesOnly && op.Kind == workload.Write {
					op = d.seq.Op(int(d.next.Add(1) - 1))
				}
				perClient[c] = append(perClient[c], d.do(ctx, op, &buf, count%parseEvery == 0))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// overLimit is the failure reason of an operation that was answered
// correctly but too slowly.
const overLimit = "over_limit"

// failure explains why a sample counts as failed, or returns "".
func (d *driver) failure(s sample) string {
	limit := d.spec.SearchLimit
	if s.kind == workload.Write {
		limit = d.spec.WriteLimit
	}
	switch {
	case s.status == 0:
		return "transport"
	case s.status != http.StatusOK:
		return fmt.Sprintf("status %d", s.status)
	case s.invalid:
		return "invalid"
	case s.lat > limit:
		return overLimit
	}
	return ""
}
