package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/benchmarks/workload"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// gateQueries is the number of queries the correctness gate samples per
// workload (a repeating workload's whole pool when that is smaller).
const gateQueries = 50

// maxK mirrors propserve's default -max-K, so in-process engines clamp
// the way the server does.
const maxK = 2000

// loadCorpus reads the corpus file the server was started on, so the
// oracle and the replay see exactly the bytes the server saw.
func loadCorpus(path string) (*dataset.Dataset, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	start := time.Now()
	d, err := dataset.Load(f)
	return d, time.Since(start), err
}

// parseTarget turns a search target into a request on eng, the way the
// server's handler does.
func parseTarget(eng *engine.Engine, target string) (*engine.QueryRequest, error) {
	_, rawQuery, _ := strings.Cut(target, "?")
	vals, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, err
	}
	return eng.RequestFromValues(vals)
}

// oracleAnswer evaluates a search target on eng, in process.
func oracleAnswer(ctx context.Context, eng *engine.Engine, target string) (answer, error) {
	req, err := parseTarget(eng, target)
	if err != nil {
		return answer{}, err
	}
	res, err := eng.Query(ctx, req)
	if err != nil {
		return answer{}, err
	}
	a := answer{hpf: res.Breakdown.Total}
	for _, idx := range res.Sel.Indices {
		a.ids = append(a.ids, res.SS.Places[idx].ID)
	}
	return a, nil
}

// runGate answers each op both over HTTP and on an unsharded, sequential
// in-process engine over the same corpus file, and requires the result
// IDs in rank order and HPF to match exactly. It re-checks sharded ≡
// unsharded and parallel ≡ sequential through the real binary. The
// answers are returned by pool index for the repeating workloads.
func runGate(ctx context.Context, drv *driver, oracle *engine.Engine, ops []workload.Op) ([]*answer, error) {
	answers := make([]*answer, drv.spec.Pool)
	var buf bytes.Buffer
	for i, op := range ops {
		s := drv.do(ctx, op, &buf, true)
		if s.status != http.StatusOK || s.parsed == nil {
			return nil, fmt.Errorf("gate query %d: status %d, invalid=%v: %s", i, s.status, s.invalid, op.Target)
		}
		want, err := oracleAnswer(ctx, oracle, op.Target)
		if err != nil {
			return nil, fmt.Errorf("gate query %d: oracle: %w", i, err)
		}
		got := answer{ids: s.parsed.ids(), hpf: s.parsed.HPF}
		if !got.equal(want) {
			return nil, fmt.Errorf("gate query %d: server answered %v hpf=%v, in-process engine %v hpf=%v: %s",
				i, got.ids, got.hpf, want.ids, want.hpf, op.Target)
		}
		if !drv.spec.Unique {
			answers[op.Pool] = &want
		}
	}
	return answers, nil
}

// serverStats is the part of /v1/stats the harness reads.
type serverStats struct {
	CorpusEpoch uint64 `json:"corpus_epoch"`
	Gate        struct {
		Shed uint64 `json:"shed"`
	} `json:"gate"`
	Engine struct {
		Cache struct {
			Hits      uint64 `json:"hits"`
			Misses    uint64 `json:"misses"`
			Coalesced uint64 `json:"coalesced"`
			Evictions uint64 `json:"evictions"`
		} `json:"cache"`
		Builds uint64 `json:"builds"`
	} `json:"engine"`
	WAL struct {
		Appends uint64 `json:"appends"`
		Fsyncs  uint64 `json:"fsyncs"`
		Records uint64 `json:"records"`
		Bytes   uint64 `json:"bytes"`
	} `json:"wal"`
}

func fetchStats(ctx context.Context, c *http.Client, base string) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}
