package textctx

import "repro/internal/pairs"

// PairScores is the all-pairs contextual similarity cache. It is an alias
// of pairs.Matrix so that contextual (sC) and spatial (sS) caches share one
// representation.
type PairScores = pairs.Matrix

// NewPairScores returns an all-zero n×n symmetric score cache.
func NewPairScores(n int) *PairScores { return pairs.New(n) }
