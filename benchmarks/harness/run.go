// Package harness is the black-box benchmark of propserve: it starts the
// real server as a child process on a generated corpus, drives it over
// HTTP in a closed loop, checks its answers against an in-process engine,
// and measures it from outside — client latency, /proc, the server's own
// public diagnostics — plus a traced in-process replay for the per-layer
// numbers.
package harness

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/benchmarks/workload"
	"repro/internal/dataset"
	"repro/internal/engine"
)

const (
	// segments is how many equal slices the measured phase is cut into;
	// every end-to-end metric is computed per segment and reported as the
	// median, so a hiccup in one slice of the run cannot move it.
	segments = 5
	// A run boots the server and warms it up at least minSetupRounds
	// times, and keeps going (to maxSetupRounds) while the rounds so far
	// took less than setupBudget; setup_s is the median round. A round on
	// the small corpora takes 70 ms, mostly exec and scheduling noise, and
	// needs the extra rounds to give a steady median; on the large ones
	// five rounds already exceed the budget. The last round's server is
	// the one measured.
	minSetupRounds = 5
	maxSetupRounds = 25
	setupBudget    = 2 * time.Second
	// setupSearches is the fixed warm-up every set-up round issues: enough
	// for the lazily built state (grid table, connection, first score
	// sets) to exist, and equal across rounds so their times compare.
	setupSearches = 64
)

// Config is what one benchmark invocation fixes for all its workloads.
type Config struct {
	// OutDir receives server logs and span files (benchmarks/out).
	OutDir string
	// Bin is the propserve binary under test.
	Bin string
	// Seed makes the request sequence.
	Seed int64
	// Seconds is the length of the measured phase.
	Seconds int
	// Trace adds the traced in-process replay (per-layer metrics, span
	// file) after the server is stopped.
	Trace bool
}

// Result is everything one workload run measured.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	// Correct is false when the correctness gate, a sampled response, or
	// the epoch check failed; Problems says which.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Attempted counts the measured phase's operations. Failed counts
	// those that did not produce a valid answer (transport error, status
	// other than 200, failed validation), by reason in Failures; OverLimit
	// those answered correctly but slower than the workload's limit.
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	OverLimit int            `json:"over_limit"`
	Failures  map[string]int `json:"failures,omitempty"`
	// EndToEnd holds the user-visible metrics by name; Layers the
	// per-layer ones.
	EndToEnd map[string]Summary `json:"end_to_end"`
	Layers   map[string]float64 `json:"per_layer"`
	// TraceFile is the span file of the traced replay, when one ran.
	TraceFile string `json:"trace_file,omitempty"`
}

// maxFailRate is the absolute bound on fail_rate.
const maxFailRate = 0.002

// FailRate is the share of attempted operations that failed or missed
// their latency limit.
func (r *Result) FailRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed+r.OverLimit) / float64(r.Attempted)
}

// OK reports whether the run's answers were right and its failure rate
// within bound.
func (r *Result) OK() bool { return r.Correct && r.FailRate() <= maxFailRate }

// Corpora generates each corpus size once per invocation and shares the
// file and the in-memory dataset among the workloads that use it.
type Corpora struct {
	dir    string
	bySize map[int]*corpus
}

type corpus struct {
	path string
	d    *dataset.Dataset
	genS float64
}

// NewCorpora prepares an empty cache writing corpus files under dir.
func NewCorpora(dir string) *Corpora {
	return &Corpora{dir: dir, bySize: map[int]*corpus{}}
}

func (c *Corpora) get(places int) (*corpus, error) {
	if got, ok := c.bySize[places]; ok {
		return got, nil
	}
	start := time.Now()
	d, err := dataset.Generate(workload.CorpusConfig(places))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(c.dir, fmt.Sprintf("corpus-%d.gob", places))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("saving corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	got := &corpus{path: path, d: d, genS: time.Since(start).Seconds()}
	c.bySize[places] = got
	return got, nil
}

// RunWorkload runs one workload end to end: set-up rounds, correctness
// gate, cache fill, the measured phase, and — with cfg.Trace — the traced
// replay. tmpDir holds its WAL directories and is the caller's to remove.
func RunWorkload(ctx context.Context, cfg Config, spec workload.Spec, corpora *Corpora, tmpDir string) (*Result, error) {
	corp, err := corpora.get(spec.Places)
	if err != nil {
		return nil, err
	}
	seq, err := workload.NewSequence(spec, corp.d, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workload: spec.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Correct: true,
		EndToEnd: map[string]Summary{}, Layers: map[string]float64{"bench.corpus_gen_s": corp.genS},
	}
	logPath := filepath.Join(cfg.OutDir, spec.Name+".server.log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil { // truncate: rounds append
		return nil, err
	}

	// Set-up rounds: boot, wait for /readyz, issue the fixed warm-up. All
	// but the last server are stopped again.
	var (
		srv    *Server
		drv    *driver
		setupS []float64
	)
	defer func() {
		if srv != nil {
			srv.Stop()
		}
		if drv != nil {
			drv.close()
		}
	}()
	setupStart := time.Now()
	for round := 0; round < minSetupRounds || (round < maxSetupRounds && time.Since(setupStart) < setupBudget); round++ {
		if srv != nil {
			srv.Stop()
			drv.close()
		}
		walDir, err := os.MkdirTemp(tmpDir, "wal-")
		if err != nil {
			return nil, err
		}
		srv, err = StartServer(ctx, cfg.Bin, corp.path, spec.ServerFlags(walDir), logPath)
		if err != nil {
			return nil, err
		}
		drv = newDriver(srv.URL, seq, spec)
		warm := drv.run(ctx, runOpts{ops: setupSearches, searchesOnly: true})
		setupS = append(setupS, time.Since(srv.Started).Seconds())
		if err := firstFailure(drv, warm); err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", round, err)
		}
	}
	res.EndToEnd["setup_s"] = Summarize(setupS, len(setupS))

	// Correctness gate, before any write has moved the corpus.
	oracleData, loadDur, err := loadCorpus(corp.path)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", corp.path, err)
	}
	res.Layers["dataset.load_s"] = loadDur.Seconds()
	var gateOps []workload.Op
	if spec.Unique {
		for len(gateOps) < gateQueries {
			gateOps = append(gateOps, seq.Op(int(drv.next.Add(1)-1)))
		}
	} else if gateOps = seq.PoolOps(); len(gateOps) > gateQueries {
		gateOps = gateOps[:gateQueries]
	}
	oracle := engine.New(oracleData, engine.Options{MaxK: maxK, CacheEntries: 2})
	if drv.expect, err = runGate(ctx, drv, oracle, gateOps); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res.Correct = false
		res.Problems = append(res.Problems, err.Error())
		drv.expect = nil
	}
	// The pool's reference answers hold for as long as the corpus does.
	drv.checkExpect = !spec.Mutation

	// Fill the cache to its steady state.
	fillStart := time.Now()
	fill := drv.run(ctx, runOpts{ops: int64(spec.FillOps)})
	res.Layers["bench.cache_fill_s"] = time.Since(fillStart).Seconds()
	if err := firstFailure(drv, fill); err != nil {
		return nil, fmt.Errorf("cache fill: %w", err)
	}

	if err := measure(ctx, cfg, spec, srv, drv, res); err != nil {
		return nil, err
	}
	srv.Stop()
	drv.close()
	srv, drv = nil, nil

	if cfg.Trace {
		layers, spans, err := runReplay(ctx, spec, seq, oracleData, tmpDir)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		for k, v := range layers {
			res.Layers[k] = v
		}
		res.TraceFile = filepath.Join(cfg.OutDir, spec.Name+".trace.json")
		if err := WriteTrace(res.TraceFile, TraceFile{Workload: spec.Name, Seed: cfg.Seed, Spans: spans}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// firstFailure returns an error for the first failed sample of a warm-up
// phase, where a failure means the benchmark cannot run at all. Latency
// limits do not apply: cold first requests are slow by design.
func firstFailure(drv *driver, samples []sample) error {
	for _, s := range samples {
		if why := drv.failure(s); why != "" && why != overLimit {
			return fmt.Errorf("operation failed during warm-up: %s", why)
		}
	}
	return nil
}

// boundary is the server's state at a segment boundary.
type boundary struct {
	at       time.Duration // since the driver was created
	cpuTicks uint64
	ops      int64
}

// measure runs the measured phase and fills res with every end-to-end
// metric and the layer metrics read from the server's public surface.
func measure(ctx context.Context, cfg Config, spec workload.Spec, srv *Server, drv *driver, res *Result) error {
	before, err := fetchStats(ctx, drv.client, srv.URL)
	if err != nil {
		return err
	}
	phase := time.Duration(cfg.Seconds) * time.Second
	start := time.Now()
	// The boundary reader shares the two cores with the clients and the
	// server; it wakes segments+1 times in the whole phase.
	bounds := make([]boundary, 0, segments+1)
	boundsDone := make(chan error, 1)
	go func() {
		for i := 0; i <= segments; i++ {
			wake := start.Add(phase * time.Duration(i) / segments)
			select {
			case <-time.After(time.Until(wake)):
			case <-ctx.Done():
				boundsDone <- ctx.Err()
				return
			}
			ticks, err := readCPUTicks(srv.Pid)
			if err != nil {
				boundsDone <- err
				return
			}
			bounds = append(bounds, boundary{at: time.Since(drv.t0), cpuTicks: ticks, ops: drv.done.Load()})
		}
		boundsDone <- nil
	}()
	samples := drv.run(ctx, runOpts{until: start.Add(phase)})
	if err := <-boundsDone; err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("reading /proc/%d/stat: %w", srv.Pid, err)
	}
	after, err := fetchStats(ctx, drv.client, srv.URL)
	if err != nil {
		return err
	}
	rss, err := readPeakRSSMB(srv.Pid)
	if err != nil {
		return err
	}

	// Failures, over the whole phase.
	res.Attempted = len(samples)
	res.Failures = map[string]int{}
	var shed, err5xx int
	for _, s := range samples {
		switch why := drv.failure(s); why {
		case "":
		case overLimit:
			res.OverLimit++
		default:
			res.Failed++
			res.Failures[why]++
		}
		switch {
		case s.status == http.StatusServiceUnavailable:
			shed++
		case s.status >= 500:
			err5xx++
		}
	}
	if res.Failures["invalid"] > 0 {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf("%d sampled responses failed validation", res.Failures["invalid"]))
	}
	if spec.Mutation && after.CorpusEpoch != uint64(drv.acked.Load()) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf("corpus_epoch %d after the phase, but %d writes were acknowledged",
			after.CorpusEpoch, drv.acked.Load()))
	}

	// Per-segment end-to-end metrics.
	var opsPerS, cpuPerOp, p50, p95, writeP50 []float64
	var searches, writes int
	minSegSearches := -1
	for i := 0; i < segments; i++ {
		lo, hi := bounds[i], bounds[i+1]
		dOps := float64(hi.ops - lo.ops)
		opsPerS = append(opsPerS, dOps/(hi.at-lo.at).Seconds())
		if dOps > 0 {
			cpuPerOp = append(cpuPerOp, float64(hi.cpuTicks-lo.cpuTicks)*tickMS/dOps)
		}
		var sLat, wLat []float64
		for _, s := range samples {
			if s.done < lo.at || s.done >= hi.at || s.status != http.StatusOK {
				continue
			}
			if s.kind == workload.Write {
				wLat = append(wLat, ms(s.lat))
			} else {
				sLat = append(sLat, ms(s.lat))
			}
		}
		searches += len(sLat)
		writes += len(wLat)
		if minSegSearches < 0 || len(sLat) < minSegSearches {
			minSegSearches = len(sLat)
		}
		if len(sLat) > 0 {
			p50 = append(p50, Percentile(sLat, 0.50))
			p95 = append(p95, Percentile(sLat, 0.95))
		}
		if len(wLat) > 0 {
			writeP50 = append(writeP50, Percentile(wLat, 0.50))
		}
	}
	total := int(bounds[segments].ops - bounds[0].ops)
	res.EndToEnd["ops_per_s"] = Summarize(opsPerS, total)
	res.EndToEnd["server_cpu_ms_per_op"] = Summarize(cpuPerOp, total)
	res.EndToEnd["p50_ms"] = Summarize(p50, searches)
	res.EndToEnd["p95_ms"] = Summarize(p95, searches)
	res.EndToEnd["peak_rss_mb"] = Summarize([]float64{rss}, 1)
	if !Supported(0.95, minSegSearches) {
		res.Problems = append(res.Problems, fmt.Sprintf(
			"p95 has fewer than %d samples beyond it in a segment of %d searches; run longer", minBeyond, minSegSearches))
	}

	// Layer metrics from the public surface.
	l := res.Layers
	l["propserve.fail_rate"] = res.FailRate()
	l["propserve.over_limit"] = float64(res.OverLimit)
	l["propserve.shed"] = float64(shed)
	l["propserve.err_5xx"] = float64(err5xx)
	l["propserve.write_p50_ms"] = Summarize(writeP50, writes).Median
	l["bench.searches"] = float64(searches)
	l["bench.segment_searches_min"] = float64(minSegSearches)
	surfaceMetrics(samples, l)
	c0, c1 := before.Engine.Cache, after.Engine.Cache
	hits := float64(c1.Hits - c0.Hits)
	lookups := hits + float64(c1.Misses-c0.Misses) + float64(c1.Coalesced-c0.Coalesced)
	l["engine.cache_hit_ratio"] = 0
	if lookups > 0 {
		l["engine.cache_hit_ratio"] = hits / lookups
	}
	l["engine.builds"] = float64(after.Engine.Builds - before.Engine.Builds)
	l["engine.evictions"] = float64(c1.Evictions - c0.Evictions)
	l["engine.coalesced"] = float64(c1.Coalesced - c0.Coalesced)
	appends := float64(after.WAL.Appends - before.WAL.Appends)
	l["wal.appends"] = appends
	l["wal.fsyncs_per_append"], l["wal.bytes_per_record"] = 0, 0
	if appends > 0 {
		l["wal.fsyncs_per_append"] = float64(after.WAL.Fsyncs-before.WAL.Fsyncs) / appends
	}
	if after.WAL.Records > 0 {
		l["wal.bytes_per_record"] = float64(after.WAL.Bytes) / float64(after.WAL.Records)
	}
	return nil
}

// surfaceMetrics reduces the fully parsed samples — every parseEvery-th
// response — and the latency and size of all of them to the propserve.*
// layer metrics.
func surfaceMetrics(samples []sample, l map[string]float64) {
	var lat, size, app, overhead, unattr, writeApp []float64
	stages := map[string][]float64{}
	for _, s := range samples {
		if s.status != http.StatusOK {
			continue
		}
		if s.kind == workload.Write {
			if s.appMS > 0 {
				writeApp = append(writeApp, s.appMS)
			}
			continue
		}
		lat = append(lat, ms(s.lat))
		size = append(size, float64(s.bytes))
		if s.parsed == nil {
			continue
		}
		app = append(app, s.appMS)
		overhead = append(overhead, ms(s.lat)-s.appMS)
		diag := s.parsed.Diagnostics
		// shard_retrieve and merge are children of retrieve; summing them
		// too would count retrieval twice.
		var sum float64
		for _, st := range []string{"parse", "admission_wait", "retrieve", "step1_pcs", "step1_pss", "step2_select"} {
			sum += diag.StageMS[st]
		}
		if diag.ElapsedMS > 0 {
			unattr = append(unattr, 1-sum/diag.ElapsedMS)
		}
		for _, st := range []string{"retrieve", "merge", "step1_pcs", "step1_pss", "step2_select", "admission_wait"} {
			stages[st] = append(stages[st], diag.StageMS[st])
		}
	}
	l["propserve.p99_ms"] = Percentile(lat, 0.99)
	l["propserve.response_bytes_p50"] = Median(size)
	l["propserve.app_ms_p50"] = Median(app)
	l["propserve.http_overhead_ms_p50"] = Median(overhead)
	l["propserve.unattributed_share"] = Median(unattr)
	l["propserve.write_app_ms_p50"] = Median(writeApp)
	for _, st := range []string{"retrieve", "merge", "step1_pcs", "step1_pss", "step2_select", "admission_wait"} {
		l["propserve.stage_"+st+"_ms"] = Median(stages[st])
	}
	l["bench.parsed_samples"] = float64(len(app))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
