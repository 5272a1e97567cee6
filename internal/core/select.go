package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/explain"
	"repro/internal/telemetry"
)

// Algorithm names a selection algorithm for dispatch from configuration
// or command-line flags.
type Algorithm string

// The registered selection algorithms.
const (
	AlgABP     Algorithm = "abp"      // proportional, best-pair greedy (recommended)
	AlgIAdU    Algorithm = "iadu"     // proportional, incremental-add greedy
	AlgTopK    Algorithm = "topk"     // top-k by relevance (S_k baseline)
	AlgABPDiv  Algorithm = "abp-div"  // diversification-only ABP (ABP_D)
	AlgIAdUDiv Algorithm = "iadu-div" // diversification-only IAdU (IAdU_D)
	AlgExact   Algorithm = "exact"    // brute force (small instances only)
)

// Every registered implementation threads a context through its greedy
// loops; the context-free entry points pass context.Background(). Each
// greedy has one body, bound here to its pair rule.
var registry = map[Algorithm]func(context.Context, *ScoreSet, Params) (Selection, error){
	AlgABP:     ruleHPF.abp,
	AlgIAdU:    ruleHPF.iadu,
	AlgTopK:    topKCtx,
	AlgABPDiv:  ruleDiv.abp,
	AlgIAdUDiv: ruleDiv.iadu,
	AlgExact:   exactCtx,
}

// Algorithms lists the registered algorithm names, sorted.
func Algorithms() []Algorithm {
	out := make([]Algorithm, 0, len(registry))
	for a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Registered reports whether alg names a registered selection algorithm —
// servers use it to reject unknown algorithms before any scoring work.
func Registered(alg Algorithm) bool {
	_, ok := registry[alg]
	return ok
}

// Select runs the named algorithm on the score set.
func Select(alg Algorithm, ss *ScoreSet, p Params) (Selection, error) {
	return SelectCtx(context.Background(), alg, ss, p)
}

// SelectCtx runs the named algorithm with cooperative cancellation: the
// greedy loops poll ctx once per outer iteration and return an error
// matching ErrCancelled or ErrDeadline as soon as ctx terminates. The
// greedies read pairs through an instance of their own (see instance),
// so ss is only read and may serve concurrent selections.
func SelectCtx(ctx context.Context, alg Algorithm, ss *ScoreSet, p Params) (Selection, error) {
	f, ok := registry[alg]
	if !ok {
		return Selection{}, fmt.Errorf("core: unknown algorithm %q (have %v)", alg, Algorithms())
	}
	explain.FromContext(ctx).SetAlgorithm(string(alg))
	defer telemetry.StartSpan(ctx, telemetry.StageSelect)()
	return f(ctx, ss, p)
}
