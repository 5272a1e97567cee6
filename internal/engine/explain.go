package engine

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/explain"
)

// CacheBypass is the Result.Cache value reported by Explain: the score set
// was recomputed regardless of cache state, so none of the ordinary
// dispositions (hit, miss, coalesced) applies.
const CacheBypass = "bypass"

// Explain evaluates req like Query but recomputes both steps under an
// explain collector, returning the algorithm-level introspection report
// alongside the result. The LRU and singleflight layers are deliberately
// bypassed: a cached score set carries no pruning counters and a memoised
// selection carries no greedy trace, so serving either would return an
// empty report. The recomputed score set still warms the cache when the
// key was not already resident (the work is done, so keep it), but never
// displaces a resident entry's memoised selections.
//
// The report's second return is self-contained (deep-copied by
// Collector.Report), safe to retain and serialise after the call.
func (e *Engine) Explain(ctx context.Context, req *QueryRequest) (*Result, *explain.Report, error) {
	key, err := req.Normalize()
	if err != nil {
		return nil, nil, err
	}
	e.explains.Add(1)

	col := explain.New()
	ctx = explain.WithCollector(ctx, col)

	cached := e.cache.contains(key.String())
	ss, err := e.build(ctx, req)
	if err != nil {
		e.buildErrors.Add(1)
		return nil, nil, err
	}
	if !cached {
		e.cache.add(key.String(), newEntry(req, ss))
	}

	if ss.K() <= req.SmallK {
		return nil, nil, fmt.Errorf("%w: retrieved %d places; need more than k=%d",
			ErrBadRequest, ss.K(), req.SmallK)
	}
	p := core.Params{K: req.SmallK, Lambda: req.Lambda, Gamma: req.Gamma}
	// Step 2 runs directly, not through the entry's selection memo: the
	// greedy rounds must actually execute for the trace to exist.
	sel, err := core.SelectCtx(ctx, core.Algorithm(req.Algo), ss, p)
	if err != nil {
		return nil, nil, fmt.Errorf("select: %w", err)
	}
	res := &Result{
		SS:        ss,
		Sel:       sel,
		Breakdown: ss.Evaluate(sel.Indices, req.Lambda),
		Cache:     CacheBypass,
	}
	return res, col.Report(), nil
}
