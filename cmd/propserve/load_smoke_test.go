package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/slo"
)

// TestLoadSmoke drives real HTTP load through an in-process server as a
// closed loop: MaxInFlight clients, each sending its next request only
// after its previous reply, drain a fixed count of unique-key searches.
// At most MaxInFlight requests are in flight, plus a reply that lands
// before its slot is released, which the MaxQueue = MaxInFlight queue
// absorbs — so the gate sheds nothing in any build mode, -race
// included. It checks the contract sustained load relies on: every
// response is a clean 200 with a leading app;dur= Server-Timing entry,
// and the /v1/slo sketch quantiles agree with the exact quantiles of
// those durations to within one sketch bucket.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load smoke test skipped in -short mode")
	}
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const requests = 120
	queries, err := s.def.Eng.Corpus().GenQueries(32, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Miss-heavy: cache keys hash exact float bits, so a nanoscale x
	// jitter per request forces a fresh computation every time, and the
	// whole run lands in one SLO class.
	target := func(i int) string {
		q := queries[i%len(queries)]
		v := url.Values{}
		v.Set("x", strconv.FormatFloat(q.Loc.X+float64(i+1)*1e-9, 'g', -1, 64))
		v.Set("y", strconv.FormatFloat(q.Loc.Y, 'g', -1, 64))
		v.Set("keywords", strings.Join(q.Keywords.Words(s.def.Eng.Corpus().Dict), ","))
		v.Set("K", "60")
		v.Set("k", "6")
		return ts.URL + "/v1/search?" + v.Encode()
	}

	clients := s.cfg.MaxInFlight
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	type reply struct {
		status int
		timing string
		err    error
	}
	replies := make([]reply, requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < requests; i = int(next.Add(1)) - 1 {
				resp, err := client.Get(target(i))
				if err != nil {
					replies[i].err = err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				replies[i] = reply{status: resp.StatusCode, timing: resp.Header.Get("Server-Timing")}
			}
		}()
	}
	wg.Wait()

	if st := s.def.Gate.Stats(); st.Shed != 0 || st.QueueTimeouts != 0 {
		t.Fatalf("closed loop of %d clients: gate shed %d, queue timeouts %d", clients, st.Shed, st.QueueTimeouts)
	}
	var transportErrs, client4xx, server5xx int
	for _, r := range replies {
		switch {
		case r.err != nil:
			transportErrs++
		case r.status >= 500:
			server5xx++
		case r.status >= 400:
			client4xx++
		}
	}
	if transportErrs != 0 || server5xx != 0 || client4xx != 0 {
		t.Fatalf("load was not clean: %d transport errors, %d 5xx, %d 4xx", transportErrs, server5xx, client4xx)
	}
	durs := make([]time.Duration, requests)
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		lead, entries := parseServerTiming(t, r.timing)
		if lead != "app" {
			t.Fatalf("request %d: Server-Timing %q, want leading app;dur=", i, r.timing)
		}
		durs[i] = time.Duration(entries["app"] * float64(time.Millisecond))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	// The ⌈p·n⌉-th smallest sample, the rank slo.Counts.Quantile reads.
	exact := func(p float64) time.Duration {
		return durs[max(0, int(math.Ceil(p*requests))-1)]
	}
	if p99 := exact(0.99); p99 <= 0 || p99 > 5*time.Second {
		t.Fatalf("implausible server p99 = %v", p99)
	}

	// Agreement: the sketch estimate for each quantile must land within
	// one bucket of the exact order statistic over the same samples (the
	// Server-Timing durations are byte-for-byte what the tracker saw).
	miss := classStats(t, sloBody(t, s), slo.ClassSearchMiss, "total")
	if got := int(miss["count"].(float64)); got != requests {
		t.Fatalf("slo search_miss count = %d, sent %d", got, requests)
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
		exactBucket := slo.BucketIndex(exact(q.p))
		if diff := sketchBucket - exactBucket; diff < -1 || diff > 1 {
			t.Errorf("%s: sketch %vms (bucket %d) vs exact %v (bucket %d): off by %d buckets",
				q.key, est, sketchBucket, exact(q.p), exactBucket, diff)
		}
	}
}
