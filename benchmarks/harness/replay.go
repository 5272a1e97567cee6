package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/benchmarks/workload"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/irtree"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/textctx"
	"repro/internal/wal"
)

const (
	// replayRequests is how many searches of the workload's sequence the
	// traced run replays; replayBudget stops it earlier on the workloads
	// whose requests are expensive, so a traced run stays within the
	// contract's per-run time (at least replayMin are always replayed).
	replayRequests = 200
	replayBudget   = 8 * time.Second
	replayMin      = 20
	// pruningEvery is the stride at which the replay re-runs msJh under an
	// explain collector to read its pruning counters.
	pruningEvery = 10
)

// replayer holds what the traced run replays requests against: the corpus
// loaded from the server's own file, an engine configured like the
// server's (but sequential in Step 1, since the replay is single-threaded
// so that a span's time is its own), and the sharded view retrieval
// fans out over.
type replayer struct {
	spec  workload.Spec
	d     *dataset.Dataset
	eng   *engine.Engine
	view  *dataset.ShardView // two shards, whatever the workload's server runs
	ratio []float64          // msJh compared/candidate pairs
	cells []float64          // occupied grid cells
}

// replayShards is the shard count dataset.shard_retrieve_us is measured
// at, on every workload.
const replayShards = 2

func newReplayer(spec workload.Spec, d *dataset.Dataset) (*replayer, error) {
	view, err := dataset.NewShardView(d, replayShards, 0)
	if err != nil {
		return nil, err
	}
	// A handful of cache entries is all the replay needs (each miss is
	// followed directly by its hit), and keeps K=1000 score sets from
	// piling up in the harness.
	eng := engine.New(d, engine.Options{MaxK: maxK, Shards: spec.Shards, CacheEntries: 4})
	return &replayer{spec: spec, d: d, eng: eng, view: view}, nil
}

// request replays search i of the sequence stage by stage. Spans, in
// order, under one root:
//
//	request
//	├─ engine.parse            RequestFromValues + Normalize
//	├─ warm                    one unmeasured retrieval (CPU caches)
//	├─ engine.query_miss       Engine.Query on an uncached key
//	├─ engine.query_hit        the same query again
//	├─ pipeline                the stages in the order engine.build and
//	│  │                       Engine.Query run them
//	│  ├─ dataset.retrieve | dataset.shard_retrieve   (as the server is configured)
//	│  ├─ core.compute_scores
//	│  ├─ core.select_abp
//	│  └─ core.evaluate
//	├─ engine.build_response
//	├─ engine.encode
//	└─ layers                  direct calls into the sub-layers, same inputs
//	   ├─ dataset.retrieve | dataset.shard_retrieve   (the other variant)
//	   ├─ irtree.topk
//	   ├─ textctx.pcs_msjh
//	   ├─ grid.pss_squared
//	   ├─ grid.pss_exact
//	   ├─ core.select_iadu
//	   └─ metrics.evaluate
func (r *replayer) request(ctx context.Context, rec *Recorder, i int, target string) error {
	root := rec.Begin("request", 0, i)
	defer rec.End(root)
	span := func(name string, parent int, fn func() error) error {
		id := rec.Begin(name, parent, i)
		err := fn()
		rec.End(id)
		if err != nil {
			return fmt.Errorf("replay %d: %s: %w", i, name, err)
		}
		return nil
	}

	var req *engine.QueryRequest
	if err := span("engine.parse", root, func() (err error) {
		if req, err = parseTarget(r.eng, target); err == nil {
			_, err = req.Normalize()
		}
		return err
	}); err != nil {
		return err
	}

	loc := geo.Pt(req.X, req.Y)
	q := dataset.Query{Loc: loc, Keywords: req.KeywordSet()}
	retrieveFlat := func() ([]core.Place, error) { return r.d.Retrieve(q, req.K) }
	retrieveSharded := func() ([]core.Place, error) { return r.view.Retrieve(ctx, q, req.K) }
	served, other := retrieveFlat, retrieveSharded
	servedName, otherName := "dataset.retrieve", "dataset.shard_retrieve"
	if r.spec.Shards >= 2 {
		served, other = other, served
		servedName, otherName = otherName, servedName
	}

	// On a 100k-place corpus whichever retrieval runs first pays ~1 ms of
	// CPU cache misses on the query's index nodes. One retrieval outside
	// the measured spans puts every span after it on the same footing.
	if err := span("warm", root, func() error {
		_, err := served()
		return err
	}); err != nil {
		return err
	}

	// A repeating workload's sequence revisits pool queries; shifting the
	// location by a few ulps gives Engine.Query an uncached key for the
	// same work.
	missReq, err := parseTarget(r.eng, target)
	if err != nil {
		return err
	}
	if !r.spec.Unique {
		missReq.X += float64(i+1) * 1e-9
	}
	if err := span("engine.query_miss", root, func() error {
		_, err := r.eng.Query(ctx, missReq)
		return err
	}); err != nil {
		return err
	}
	if err := span("engine.query_hit", root, func() error {
		_, err := r.eng.Query(ctx, missReq) // Normalize is idempotent
		return err
	}); err != nil {
		return err
	}

	var (
		places []core.Place
		ss     *core.ScoreSet
		sel    core.Selection
		bd     core.Breakdown
	)
	params := core.Params{K: req.SmallK, Lambda: req.Lambda, Gamma: req.Gamma}
	pipeline := rec.Begin("pipeline", root, i)
	err = span(servedName, pipeline, func() (err error) {
		places, err = served()
		return err
	})
	if err == nil {
		err = span("core.compute_scores", pipeline, func() (err error) {
			ss, err = core.ComputeScoresCtx(ctx, loc, places, core.ScoreOptions{
				Gamma: req.Gamma, Spatial: req.SpatialMethod(), SquaredTable: r.eng.SquaredTable(),
			})
			return err
		})
	}
	if err == nil {
		err = span("core.select_abp", pipeline, func() (err error) {
			sel, err = core.SelectCtx(ctx, core.AlgABP, ss, params)
			return err
		})
	}
	if err == nil {
		err = span("core.evaluate", pipeline, func() error {
			bd = ss.Evaluate(sel.Indices, req.Lambda)
			return nil
		})
	}
	rec.End(pipeline)
	if err != nil {
		return err
	}

	var resp *engine.QueryResponse
	_ = span("engine.build_response", root, func() error {
		resp = r.eng.BuildResponse(req, &engine.Result{SS: ss, Sel: sel, Breakdown: bd, Cache: engine.CacheMiss}, nil)
		return nil
	})
	if err := span("engine.encode", root, func() error {
		_, err := json.Marshal(resp)
		return err
	}); err != nil {
		return err
	}

	sets := make([]textctx.Set, len(places))
	pts := make([]geo.Point, len(places))
	for j := range places {
		sets[j], pts[j] = places[j].Context, places[j].Loc
	}
	layers := rec.Begin("layers", root, i)
	defer rec.End(layers)
	if err := span(otherName, layers, func() error {
		_, err := other()
		return err
	}); err != nil {
		return err
	}
	_ = span("irtree.topk", layers, func() error {
		r.d.Index.TopK(loc, q.Keywords, irtree.QueryOptions{
			K: req.K, Beta: 0.5, MaxDist: r.d.Config.Extent * math.Sqrt2,
		})
		return nil
	})
	_ = span("textctx.pcs_msjh", layers, func() error {
		textctx.PCS(textctx.MSJHEngine{}, sets)
		return nil
	})
	var g *grid.Squared
	if err := span("grid.pss_squared", layers, func() (err error) {
		if g, err = grid.NewSquared(loc, pts, len(pts)); err == nil {
			g.PSS(r.eng.SquaredTable())
		}
		return err
	}); err != nil {
		return err
	}
	if err := span("grid.pss_exact", layers, func() error {
		_, _, err := grid.PSSBaselineCtx(ctx, loc, pts)
		return err
	}); err != nil {
		return err
	}
	if err := span("core.select_iadu", layers, func() error {
		_, err := core.SelectCtx(ctx, core.AlgIAdU, ss, params)
		return err
	}); err != nil {
		return err
	}
	_ = span("metrics.evaluate", layers, func() error {
		metrics.Evaluate(ss, sel.Indices)
		return nil
	})

	if rec != nil {
		r.cells = append(r.cells, float64(g.OccupiedCells()))
		if i%pruningEvery == 0 {
			c := explain.New()
			if _, err := (textctx.MSJHEngine{}).AllPairsCtx(explain.WithCollector(ctx, c), sets); err != nil {
				return err
			}
			if p := c.Report().Pruning; p != nil && p.CandidatePairs > 0 {
				r.ratio = append(r.ratio, float64(p.ComparedPairs)/float64(p.CandidatePairs))
			}
		}
	}
	return nil
}

// replayAll replays the targets under rec (nil: untimed) until they are
// exhausted or — past the first replayMin — budget has elapsed (0: no
// budget), and returns how many it replayed and the wall time.
func (r *replayer) replayAll(ctx context.Context, rec *Recorder, targets []string, budget time.Duration) (int, time.Duration, error) {
	start := time.Now()
	done := 0
	for ; done < len(targets); done++ {
		if budget > 0 && done >= replayMin && time.Since(start) > budget {
			break
		}
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		if err := r.request(ctx, rec, done, targets[done]); err != nil {
			return 0, 0, err
		}
	}
	return done, time.Since(start), nil
}

// runReplay is the traced run: it replays the first searches of the
// sequence through the layers' public functions under spans, replays them
// again untimed for the tracing overhead, times the layers that are not
// on the search path, and returns the per-layer metrics with the spans.
func runReplay(ctx context.Context, spec workload.Spec, seq *workload.Sequence, d *dataset.Dataset, tmpDir string) (map[string]float64, []Span, error) {
	r, err := newReplayer(spec, d)
	if err != nil {
		return nil, nil, err
	}
	var targets []string
	for n := 0; len(targets) < replayRequests; n++ {
		if op := seq.Op(n); op.Kind == workload.Search {
			targets = append(targets, op.Target)
		}
	}
	rec := NewRecorder()
	m := map[string]float64{}

	// Untraced timings that must precede the replay: the shared grid table
	// is built lazily by the first query that needs it.
	start := time.Now()
	r.eng.SquaredTable()
	m["grid.table_build_s"] = time.Since(start).Seconds()

	done, traced, err := r.replayAll(ctx, rec, targets, replayBudget)
	if err != nil {
		return nil, nil, err
	}
	_, untraced, err := r.replayAll(ctx, nil, targets[:done], 0)
	if err != nil {
		return nil, nil, err
	}
	m["bench.trace_overhead_ratio"] = traced.Seconds() / untraced.Seconds()
	m["bench.replay_requests"] = float64(done)

	spans := rec.Spans()
	byName := map[string][]float64{}
	perReq := make([]map[string]float64, done) // request → span name → µs
	self := SelfTimes(spans)
	var rootTime, rootChildren float64
	for _, s := range spans {
		us := float64(s.End-s.Start) / 1e3
		byName[s.Name] = append(byName[s.Name], us)
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]float64{}
		}
		perReq[s.Req][s.Name] = us
		if s.Name == "request" {
			rootTime += us
			rootChildren += us - float64(self[s.ID])/1e3
		}
	}
	for name, metric := range map[string]string{
		"engine.parse":           "engine.parse_us",
		"dataset.retrieve":       "dataset.retrieve_us",
		"dataset.shard_retrieve": "dataset.shard_retrieve_us",
		"irtree.topk":            "irtree.topk_us",
		"textctx.pcs_msjh":       "textctx.pcs_msjh_us",
		"grid.pss_squared":       "grid.pss_squared_us",
		"grid.pss_exact":         "grid.pss_exact_us",
		"core.compute_scores":    "core.compute_scores_us",
		"core.select_abp":        "core.select_abp_us",
		"core.select_iadu":       "core.select_iadu_us",
		"core.evaluate":          "core.evaluate_us",
		"metrics.evaluate":       "metrics.evaluate_us",
		"engine.build_response":  "engine.build_response_us",
		"engine.encode":          "engine.encode_us",
		"engine.query_miss":      "engine.query_miss_us",
		"engine.query_hit":       "engine.query_hit_us",
	} {
		m[metric] = Median(byName[name])
	}
	// Derived self times — what a layer costs beyond the layers it calls —
	// are differences taken within each request: these distributions are
	// heavy-tailed, and a difference of medians can come out negative.
	servedRetrieve := "dataset.retrieve"
	if spec.Shards >= 2 {
		servedRetrieve = "dataset.shard_retrieve"
	}
	var scoresSelf, querySelf []float64
	for _, us := range perReq {
		scoresSelf = append(scoresSelf, us["core.compute_scores"]-us["textctx.pcs_msjh"]-us["grid.pss_squared"])
		querySelf = append(querySelf, us["engine.query_miss"]-us[servedRetrieve]-
			us["core.compute_scores"]-us["core.select_abp"]-us["core.evaluate"])
	}
	m["core.compute_scores_self_us"] = Median(scoresSelf)
	m["engine.query_self_us"] = Median(querySelf)
	m["bench.trace_root_coverage"] = rootChildren / rootTime
	m["textctx.pairs_compared_ratio"] = Median(r.ratio)
	m["grid.occupied_cells"] = Median(r.cells)

	if err := offPathLayers(ctx, spec, d, tmpDir, rec, m); err != nil {
		return nil, nil, err
	}
	return m, rec.Spans(), nil
}

// timeN records one span around n calls of fn and returns the mean
// nanoseconds per call.
func timeN(rec *Recorder, name string, n int, fn func()) float64 {
	id := rec.Begin(name, 0, -1)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	ns := float64(time.Since(start)) / float64(n)
	rec.End(id)
	return ns
}

// offPathLayers times the layers a search does not pass through stage by
// stage — mutation, the WAL, and the per-request guardrails whose cost is
// nanoseconds — each under a span of its own.
func offPathLayers(ctx context.Context, spec workload.Spec, d *dataset.Dataset, tmpDir string, rec *Recorder, m map[string]float64) error {
	words := d.Dict.Words()
	upsert := func(i int) dataset.Upsert {
		return dataset.Upsert{
			ID: "bench:replay", X: d.Config.Extent / 2, Y: float64(i+1) * d.Config.Extent / 8,
			Context: []string{words[i%len(words)], words[(i+1)%len(words)], words[(i+2)%len(words)]},
		}
	}
	const mutations = 3 // each is an O(corpus) copy plus an index rebuild
	var applyUS, mutateUS []float64
	mutEng := engine.New(d, engine.Options{MaxK: maxK, Shards: spec.Shards})
	for i := 0; i < mutations; i++ {
		var err error
		applyUS = append(applyUS, timeN(rec, "dataset.apply", 1, func() {
			_, _, err = d.Apply(dataset.Batch{Upserts: []dataset.Upsert{upsert(i)}})
		})/1e3)
		if err != nil {
			return fmt.Errorf("dataset.apply: %w", err)
		}
		mutateUS = append(mutateUS, timeN(rec, "engine.mutate", 1, func() {
			_, err = mutEng.Mutate(ctx, engine.Mutation{Upserts: []dataset.Upsert{upsert(i)}})
		})/1e3)
		if err != nil {
			return fmt.Errorf("engine.mutate: %w", err)
		}
	}
	m["dataset.apply_us"] = Median(applyUS)
	m["engine.mutate_us"] = Median(mutateUS)

	payload, err := engine.EncodeMutation(engine.Mutation{Upserts: []dataset.Upsert{upsert(0)}})
	if err != nil {
		return err
	}
	for _, w := range []struct {
		metric string
		sync   wal.SyncPolicy
		n      int
	}{
		{"wal.append_sync_us", wal.SyncAlways, 50},
		{"wal.append_nosync_us", wal.SyncNever, 500},
	} {
		dir, err := os.MkdirTemp(tmpDir, "wal-")
		if err != nil {
			return err
		}
		log, _, err := wal.Open(dir, wal.Options{Sync: w.sync})
		if err != nil {
			return err
		}
		var epoch uint64
		var appendErr error
		ns := timeN(rec, strings.TrimSuffix(w.metric, "_us"), w.n, func() {
			epoch++
			if err := log.Append(ctx, epoch, payload); err != nil {
				appendErr = err
			}
		})
		if err := log.Close(); err != nil && appendErr == nil {
			appendErr = err
		}
		if appendErr != nil {
			return fmt.Errorf("%s: %w", w.metric, appendErr)
		}
		m[w.metric] = ns / 1e3
	}

	const calls = 20000
	gate := resilience.NewGate(4, 4, time.Second)
	m["resilience.gate_acquire_ns"] = timeN(rec, "resilience.gate_acquire", calls, func() {
		if release, err := gate.Acquire(ctx); err == nil {
			release()
		}
	})
	tracker := slo.NewTracker(slo.DefaultObjectives(10*time.Millisecond, 250*time.Millisecond,
		500*time.Millisecond, time.Second, 0.999), slo.Options{})
	m["slo.observe_ns"] = timeN(rec, "slo.observe", calls, func() {
		tracker.Record(slo.ClassSearchHit, 500*time.Microsecond, slo.OutcomeOK)
	})
	// One trace per eight spans, about what a search records.
	const spansPerTrace = 8
	m["telemetry.span_ns"] = timeN(rec, "telemetry.span", calls/spansPerTrace, func() {
		tctx := telemetry.WithTrace(ctx, telemetry.NewTrace())
		for i := 0; i < spansPerTrace; i++ {
			telemetry.StartSpan(tctx, telemetry.StageParse)()
		}
	}) / spansPerTrace
	return nil
}
