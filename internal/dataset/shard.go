package dataset

// Spatial sharding of a corpus for parallel Step-1 fan-out.
//
// A ShardView partitions the place set by grid cell into n ≥ 1 shards,
// each with its own IR-tree (and therefore its own inverted index). A
// one-shard view is the corpus itself: its shard is the base dataset's
// own tree under the identity mapping, so it costs no second bulk load.
// Retrieve runs the first shard on the calling goroutine, fans the top-K
// query out across the others in parallel, and lazily merges the
// per-shard canonical result streams back into the exact sequence the
// unsharded tree would emit. Exactness rests on two facts:
//
//  1. An object's score β·Jaccard + (1−β)·proximity depends only on the
//     object, the query and the explicit Beta/MaxDist — never on which
//     tree holds it — so per-shard scores are bitwise identical to the
//     unsharded ones.
//  2. irtree's frontier ordering is deterministic (score descending,
//     ties by ascending object ID), so each tree emits its objects in a
//     canonical order. Restricting a corpus to a shard can only improve
//     an object's rank, so every member of the global top-K is inside
//     its shard's top-K. The union of per-shard top-K lists therefore
//     contains the global top-K; sorting the union by (score desc,
//     global index asc) and truncating at K reproduces the unsharded
//     sequence exactly.
//
// Shards keep their members in global order via Global (local object ID
// → global place index), which keeps the per-shard tie-break consistent
// with the global one. Apply rebuilds only the shards a mutation batch
// touches; untouched shards keep their tree and epoch and only have
// their Global lists renumbered, which is how per-shard epochs compose
// into the corpus epoch: a shard's epoch is the corpus epoch of the
// last mutation that touched it.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/telemetry"
)

// Shard is one spatial partition: a subset of the corpus places with its
// own IR-tree. The records themselves stay in the base dataset.
type Shard struct {
	// Global maps a local object ID (the IDs the shard's tree ranks by)
	// to the place's global corpus index. It is strictly increasing, so
	// local-ID order agrees with global order.
	Global []int32
	// Index is the shard's IR-tree over local object IDs.
	Index *irtree.Tree
	// Epoch is the corpus epoch of the last mutation that rebuilt this
	// shard (its creation epoch if none has).
	Epoch uint64
}

// ShardInfo is one shard's footprint for stats/diagnostics.
type ShardInfo struct {
	Places int    `json:"places"`
	Epoch  uint64 `json:"epoch"`
}

// ShardView partitions a Dataset into n spatial shards over a g×g grid
// of its extent, with cells assigned round-robin to shards. The view is
// immutable: Apply returns a successor view sharing unrebuilt shards.
type ShardView struct {
	base         *Dataset
	n, g         int
	cellW, cellH float64
	Shards       []*Shard
}

// NewShardView partitions d into n ≥ 1 shards, each built at epoch. A
// one-shard view wraps d itself: its shard serves d.Index.
func NewShardView(d *Dataset, n int, epoch uint64) (*ShardView, error) {
	if n < 1 {
		return nil, fmt.Errorf("dataset: %d shards; need at least 1", n)
	}
	sv := &ShardView{base: d, n: n}
	sv.initGrid()
	assign := sv.assignAll(d.Places)
	for sid := 0; sid < n; sid++ {
		sh, err := sv.buildShard(assign, sid, epoch)
		if err != nil {
			return nil, err
		}
		sv.Shards = append(sv.Shards, sh)
	}
	return sv, nil
}

// initGrid sizes the cell grid: g = ceil(sqrt(n)) gives at least one
// cell per shard; round-robin assignment keeps shard populations close
// even when the place distribution is skewed across cells.
func (sv *ShardView) initGrid() {
	g := 1
	for g*g < sv.n {
		g++
	}
	sv.g = g
	extent := sv.base.Config.Extent
	if extent <= 0 {
		extent = 1
	}
	sv.cellW, sv.cellH = extent/float64(g), extent/float64(g)
}

// shardOf maps a location to its shard. Coordinates outside the extent
// clamp into the edge cells — upserts only require finite coordinates.
func (sv *ShardView) shardOf(loc geo.Point) int {
	cx := int(loc.X / sv.cellW)
	cy := int(loc.Y / sv.cellH)
	if cx < 0 {
		cx = 0
	} else if cx >= sv.g {
		cx = sv.g - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= sv.g {
		cy = sv.g - 1
	}
	return (cy*sv.g + cx) % sv.n
}

// assignAll computes every place's shard.
func (sv *ShardView) assignAll(places []PlaceRecord) []int {
	assign := make([]int, len(places))
	for i := range places {
		assign[i] = sv.shardOf(places[i].Loc)
	}
	return assign
}

// buildShard collects shard sid's members of the view's base (in global
// order) and bulk-loads their tree; the single shard of a one-shard view
// takes the base's own tree instead. The error is unreachable for places
// that already passed the base index's location validation.
func (sv *ShardView) buildShard(assign []int, sid int, epoch uint64) (*Shard, error) {
	sh := &Shard{Epoch: epoch}
	for i, a := range assign {
		if a == sid {
			sh.Global = append(sh.Global, int32(i))
		}
	}
	if sv.n == 1 {
		sh.Index = sv.base.Index
		return sh, nil
	}
	objs := make([]irtree.Object, len(sh.Global))
	for li, g := range sh.Global {
		p := sv.base.Places[g]
		objs[li] = irtree.Object{ID: int32(li), Loc: p.Loc, Terms: p.Context}
	}
	idx, err := irtree.BulkLoad(objs)
	if err != nil {
		return nil, err
	}
	sh.Index = idx
	return sh, nil
}

// Base returns the unpartitioned dataset behind the view.
func (sv *ShardView) Base() *Dataset { return sv.base }

// NumShards returns the shard count.
func (sv *ShardView) NumShards() int { return sv.n }

// Info returns per-shard footprints, in shard order.
func (sv *ShardView) Info() []ShardInfo {
	out := make([]ShardInfo, len(sv.Shards))
	for i, sh := range sv.Shards {
		out[i] = ShardInfo{Places: len(sh.Global), Epoch: sh.Epoch}
	}
	return out
}

// shardCursor is one shard's position in the lazy merge: a buffered
// prefix of its canonical result stream plus the retained Searcher that
// can extend the prefix on demand.
type shardCursor struct {
	sh   *Shard
	s    *irtree.Searcher
	buf  []irtree.Result
	i    int
	done bool // stream exhausted

	// Tracing bookkeeping, populated only when a fanned-out retrieve is
	// traced: the shard's span ID (for post-merge annotation), when its
	// priming finished, and how many refills the merge pulled from it.
	sid      int
	spanID   int
	primeEnd time.Time
	refills  int
}

// prime opens the shard's searcher and buffers its first chunk results,
// recording a StageShard span when traced.
func (c *shardCursor) prime(ctx context.Context, q Query, opt irtree.QueryOptions, chunk int, traced bool) {
	var end func(...telemetry.Attr)
	if traced {
		c.spanID, end = telemetry.StartSpanAttrs(ctx, telemetry.StageShard)
	}
	c.s = c.sh.Index.Search(q.Loc, q.Keywords, opt)
	c.buf = make([]irtree.Result, 0, min(chunk, len(c.sh.Global)))
	c.refill(chunk)
	if traced {
		c.primeEnd = time.Now()
		end(
			telemetry.Attr{Key: "shard", Value: c.sid},
			telemetry.Attr{Key: "primed", Value: len(c.buf)},
			telemetry.Attr{Key: "exhausted", Value: c.done},
		)
	}
}

// refill extends the cursor's buffer by up to chunk results.
func (c *shardCursor) refill(chunk int) {
	c.buf = c.buf[:0]
	c.i = 0
	for len(c.buf) < chunk {
		r, ok := c.s.Next()
		if !ok {
			c.done = true
			return
		}
		c.buf = append(c.buf, r)
	}
}

// Retrieve answers q with the K most relevant places (the paper's S):
// the IR-trees rank by rF = ½·Jaccard(keywords, context) +
// ½·(1 − dist/maxDist), with distances normalised by the corpus extent
// diagonal. Each shard primes K/n plus slack results — the first on the
// calling goroutine, the others in parallel — and the serial k-way merge
// then consumes the prefixes in exact global order, pulling more from a
// shard's retained cursor only when the merge actually drains its prefix
// (a skewed query concentrating the top-K in one shard). Total retrieval
// work is therefore ~K emissions spread across the shards rather than
// n·K, while the output stays exactly (bitwise) what the unsharded
// Dataset.Retrieve returns; see the package comment for why. A one-shard
// view primes all K on the calling goroutine and the merge only reads
// them out.
//
// When the retrieve fans out and ctx carries a telemetry trace, each
// shard's priming records a StageShard child span (shard index, primed
// count) and the k-way merge a StageMerge span; after the merge, every
// shard span is annotated with its refill count, merge_wait_ms — how
// long its primed prefix sat waiting for the slowest shard before the
// merge began, which is what attributes the fan-out barrier's cost to
// the shard that caused it — and the nodes its searcher expanded and
// objects it scored. A retrieve that does not fan out records nothing
// beneath the caller's span. Without a trace the only per-shard overhead
// is one nil check.
func (sv *ShardView) Retrieve(ctx context.Context, q Query, K int) ([]core.Place, error) {
	if K <= 0 {
		return nil, fmt.Errorf("dataset: K = %d must be positive", K)
	}
	opt := sv.base.retrieval(K)

	var curs []*shardCursor
	for sid, sh := range sv.Shards {
		if len(sh.Global) > 0 {
			curs = append(curs, &shardCursor{sh: sh, sid: sid})
		}
	}
	if len(curs) == 0 {
		return nil, nil
	}
	prime := min(K/len(curs)+16, K)
	traced := len(curs) > 1 && telemetry.TraceFrom(ctx) != nil
	var wg sync.WaitGroup
	for _, c := range curs[1:] {
		wg.Add(1)
		go func(c *shardCursor) {
			defer wg.Done()
			c.prime(ctx, q, opt, prime, traced)
		}(c)
	}
	curs[0].prime(ctx, q, opt, prime, traced)
	wg.Wait()

	var (
		mergeStart time.Time
		endMerge   func(...telemetry.Attr)
	)
	if traced {
		mergeStart = time.Now()
		_, endMerge = telemetry.StartSpanAttrs(ctx, telemetry.StageMerge)
	}

	// Exact k-way merge by (score desc, global index asc): each cursor's
	// stream is already in that order within its shard (Global is
	// strictly increasing, so local-ID ties agree with global ties), so
	// always taking the best head reproduces the unsharded sequence.
	out := make([]core.Place, 0, min(K, len(sv.base.Places)))
	for len(out) < K {
		var (
			best   *shardCursor
			bestSc float64
			bestG  int32
		)
		for _, c := range curs {
			if c.i >= len(c.buf) {
				continue
			}
			r := c.buf[c.i]
			g := c.sh.Global[r.Obj.ID]
			if best == nil || r.Score > bestSc || (r.Score == bestSc && g < bestG) {
				best, bestSc, bestG = c, r.Score, g
			}
		}
		if best == nil {
			break
		}
		r := best.buf[best.i]
		rec := sv.base.Places[bestG]
		out = append(out, core.Place{
			ID:      rec.Label,
			Loc:     rec.Loc,
			Rel:     r.Score,
			Context: rec.Context,
		})
		best.i++
		if best.i >= len(best.buf) && !best.done {
			best.refill(prime)
			best.refills++
		}
	}
	if traced {
		endMerge(telemetry.Attr{Key: "emitted", Value: len(out)})
		for _, c := range curs {
			telemetry.Annotate(ctx, c.spanID,
				telemetry.Attr{Key: "refills", Value: c.refills},
				telemetry.Attr{Key: "merge_wait_ms", Value: roundMS(mergeStart.Sub(c.primeEnd))},
				telemetry.Attr{Key: "expanded", Value: c.s.Expanded},
				telemetry.Attr{Key: "scored", Value: c.s.Scored},
			)
		}
	}
	return out, nil
}

// roundMS renders a duration as fractional milliseconds rounded to 3
// decimals, the JSON convention used elsewhere.
func roundMS(d time.Duration) float64 {
	return math.Round(d.Seconds()*1e6) / 1e3
}

// Apply runs the batch through the base dataset's copy-on-write
// ApplyCtx and derives the successor view, rebuilding only the shards
// the batch's delta (ApplyStats.Removed and Added) touches: the shard of
// every removed record's old location and of every added record's new
// one. Untouched shards keep their tree and epoch — a mutation
// batch leaves them byte-identical — and only have their Global lists
// renumbered, since deletes shift later global indices. Rebuilt shards
// take nextEpoch, which is how per-shard epochs compose into the corpus
// epoch. A one-shard view always takes the tree ApplyCtx built.
func (sv *ShardView) Apply(ctx context.Context, b Batch, nextEpoch uint64) (*Dataset, *ShardView, ApplyStats, error) {
	next, st, err := sv.base.ApplyCtx(ctx, b)
	if err != nil {
		return nil, nil, st, err
	}

	// Affected shards. A one-shard view's shard is always rebuilt: it
	// must serve next's tree, not the old one.
	affected := make([]bool, sv.n)
	affected[0] = sv.n == 1
	for _, recs := range [...][]PlaceRecord{st.Removed, st.Added} {
		for _, r := range recs {
			affected[sv.shardOf(r.Loc)] = true
		}
	}

	nv := &ShardView{base: next, n: sv.n, g: sv.g, cellW: sv.cellW, cellH: sv.cellH}
	assign := nv.assignAll(next.Places)
	for sid := 0; sid < sv.n; sid++ {
		if affected[sid] {
			sh, err := nv.buildShard(assign, sid, nextEpoch)
			if err != nil {
				return nil, nil, st, err
			}
			nv.Shards = append(nv.Shards, sh)
			continue
		}
		// Untouched shard: same members in the same relative order
		// (ApplyCtx keeps survivors in order and appends new places at
		// the end, and none of this shard's members were touched), so
		// the tree's local IDs stay valid — only the global indices
		// shifted. Renumber Global; reuse everything else.
		old := sv.Shards[sid]
		global := make([]int32, 0, len(old.Global))
		for i, a := range assign {
			if a == sid {
				global = append(global, int32(i))
			}
		}
		if len(global) != len(old.Global) {
			// Defensive: membership changed where it could not have.
			// Rebuild rather than serve a corrupt mapping.
			sh, err := nv.buildShard(assign, sid, nextEpoch)
			if err != nil {
				return nil, nil, st, err
			}
			nv.Shards = append(nv.Shards, sh)
			continue
		}
		nv.Shards = append(nv.Shards, &Shard{
			Global: global,
			Index:  old.Index,
			Epoch:  old.Epoch,
		})
	}
	return next, nv, st, nil
}
