// Package engine is the cross-query serving core: a long-lived Engine
// owns a registered corpus (places plus the interned textctx.Dict) and
// amortises the paper's per-query work across requests.
//
// Three reuse layers, ordered by generality:
//
//  1. Maximal grid tables. By Theorem 7.1 the cell-centre similarities of
//     the squared grid (and the sector-representative similarities of the
//     radial grid) depend only on cell positions relative to the grid
//     centre measured in whole cells — never on the query location or the
//     grid's physical size. internal/grid therefore builds each table
//     lazily, once per process (grid.SharedSquaredTable,
//     grid.SharedRadialTable), and every Engine shares it across every
//     query forever.
//  2. Score sets. The Step-1 output (*core.ScoreSet: retrieved set S plus
//     its pCS/pSS/pFS vectors and what recomputes any pair bit for bit,
//     O(K) bytes) is valid only for the full Step-1 parameter key —
//     location, interned keyword set, retrieval size K, γ, and spatial
//     method. Score sets are cached, as Step 1 built them, in a
//     size-bounded LRU keyed by that canonicalised key.
//  3. Answers. Step 2 is deterministic given a score set, so each cache
//     entry memoises, per (algorithm, k, λ), the selection together with
//     everything rendered from it: HPF breakdown, diagnostics, places and
//     their encoded JSON (see answer). The request that computes a score
//     set selects its own answer on it as it caches it; a later new
//     (algorithm, k, λ) selects on the cached set (core.SelectCtx), which
//     reads the pairs it needs through a per-selection instance built
//     from the places in O(Σ|C|) — neither a Step 1 nor a build.
//
// Concurrent identical requests are deduplicated with a singleflight
// group: one caller (the leader) computes Step 1 in its own goroutine —
// so panics surface through the caller's recovery middleware and the
// caller's deadline governs the build — while the thundering herd waits
// on the shared result. A waiter whose leader was cancelled retries and
// becomes the new leader, so one impatient client cannot fail the herd.
//
// The Engine is safe for concurrent use. The corpus is held behind an
// epoch-versioned, atomically swapped snapshot: Mutate builds the next
// immutable epoch copy-on-write (dataset.Dataset.ApplyCtx) and publishes
// it with one pointer swap, while every request pins the snapshot current
// when it was created and reads it for its whole lifetime — a query never
// observes a half-applied batch. Score-set cache keys carry the epoch;
// after each mutation an entry the batch provably cannot change is
// re-keyed into the new epoch and every other one is swept (see
// Mutate). The maximal grid tables are deliberately epoch-free: by
// Theorem 7.1 they depend only on cell geometry, never on corpus
// content, and so are shared across every epoch forever.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/telemetry"
)

// Cache-status values reported in Result.Cache and the response
// diagnostics' "cache" field.
const (
	// CacheHit: the score set came straight from the LRU.
	CacheHit = "hit"
	// CacheMiss: this request computed the score set (and cached it).
	CacheMiss = "miss"
	// CacheCoalesced: an identical concurrent request was already
	// computing the score set; this request waited for its result.
	CacheCoalesced = "coalesced"
)

// MutationLog is the durability hook Mutate writes through: Append must
// durably record (epoch, payload) — or fail — before returning, because
// the engine publishes the epoch and acknowledges the batch the moment
// Append returns nil. internal/wal's Log satisfies it; the engine keeps
// only this interface so the wal package stays free of engine types.
type MutationLog interface {
	Append(ctx context.Context, epoch uint64, payload []byte) error
}

// Options configures an Engine. Zero values select the documented
// defaults.
type Options struct {
	// MaxK is the ceiling on the retrieval size K; larger requests are
	// clamped during Normalize (the clamp is observable via
	// QueryRequest.ClampedFrom). 0 disables clamping.
	MaxK int
	// CacheEntries bounds the score-set LRU. A cached score set is
	// ~92·K bytes (the places plus the per-place vectors and grid indices;
	// Stats.CacheBytes sums them) next to its answer memo. 0
	// means 128.
	CacheEntries int
	// InitialEpoch is the corpus epoch the registered dataset represents.
	// 0 for a fresh corpus; recovery passes the loaded snapshot's epoch so
	// replayed and future mutations continue the numbering the WAL
	// records carry.
	InitialEpoch uint64
	// Shards is ignored: every corpus retrieves from its own IR-tree,
	// which beat two shards on every end-to-end metric of both miss
	// workloads. It stays so that callers which still set it keep
	// compiling.
	Shards int
}

// selectionMemo bounds each cache entry's (algorithm, k, λ) memo of
// selections and the answers rendered from them (a few KB each).
const selectionMemo = 64

func (o Options) withDefaults() Options {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 128
	}
	return o
}

// corpusSnapshot is one immutable corpus epoch: the epoch's dataset.
// Requests pin the snapshot current when they were created (NewRequest)
// and read it — places, tree and dictionary — for their whole lifetime,
// so a mutation published mid-query is invisible to them.
type corpusSnapshot struct {
	epoch uint64
	d     *dataset.Dataset
}

// Engine serves proportionality queries over one registered corpus,
// reusing grid tables, score sets and selections across requests.
type Engine struct {
	snap atomic.Pointer[corpusSnapshot]
	opt  Options

	cache  *lruCache
	flight group[*entry]

	// mutMu serialises Mutate calls: each batch builds the next epoch off
	// the published one, so concurrent batches must not interleave. It
	// also guards wal, which recovery attaches after replay.
	mutMu sync.Mutex
	wal   MutationLog

	hits        atomic.Uint64
	misses      atomic.Uint64
	coalesced   atomic.Uint64
	builds      atomic.Uint64
	buildErrors atomic.Uint64
	explains    atomic.Uint64
	mutations   atomic.Uint64
	upserted    atomic.Uint64
	deleted     atomic.Uint64
	kept        atomic.Uint64
	swept       atomic.Uint64
}

// New registers d as the Engine's corpus at Options.InitialEpoch
// (epoch 0 for a fresh corpus). The dataset (places, dictionary and
// index) must be treated as read-only from now on; all later change
// goes through Mutate, which publishes fresh epochs and never touches
// d.
func New(d *dataset.Dataset, opt Options) *Engine {
	o := opt.withDefaults()
	e := &Engine{
		opt:   o,
		cache: newLRU(o.CacheEntries),
	}
	e.snap.Store(&corpusSnapshot{epoch: o.InitialEpoch, d: d})
	return e
}

// SetWAL attaches (or detaches, with nil) the mutation log. Recovery
// replays the log through Mutate with no WAL attached — the records are
// already durable — and attaches it here before mutations are served.
func (e *Engine) SetWAL(w MutationLog) {
	e.mutMu.Lock()
	e.wal = w
	e.mutMu.Unlock()
}

// Corpus returns the currently published corpus epoch's dataset.
func (e *Engine) Corpus() *dataset.Dataset { return e.snap.Load().d }

// Snapshot returns the currently published corpus dataset and its epoch
// as one consistent pair — what a compaction must read, since Corpus()
// and Epoch() individually can straddle a concurrent mutation.
func (e *Engine) Snapshot() (*dataset.Dataset, uint64) {
	s := e.snap.Load()
	return s.d, s.epoch
}

// Epoch returns the currently published corpus epoch (0 until the first
// mutation).
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// SquaredTable returns the process's shared squared-grid table (see
// grid.SharedSquaredTable).
func (e *Engine) SquaredTable() *grid.SquaredTable { return grid.SharedSquaredTable() }

// RadialTable returns the process's shared radial-grid table (see
// grid.SharedRadialTable).
func (e *Engine) RadialTable() *grid.RadialTable { return grid.SharedRadialTable() }

// Result is the evaluated output of one query.
type Result struct {
	// SS is the (possibly shared) score set. Callers must treat it as
	// read-only: it may be serving other requests concurrently. It holds
	// no pair scores; read pairs through SS.Pair.
	SS *core.ScoreSet
	// Sel is the Step-2 selection; its Indices slice may be shared with
	// other requests and must not be mutated.
	Sel core.Selection
	// Breakdown is HPF(R) with the Figure-11 decomposition.
	Breakdown core.Breakdown
	// Cache reports how the score set was obtained: CacheHit, CacheMiss
	// or CacheCoalesced.
	Cache string

	// ans is the memoised answer Sel and Breakdown came from. Query sets
	// it; a Result assembled by hand leaves it nil and is rendered from
	// its exported fields (see Engine.render).
	ans *answer
}

// Query evaluates req end to end: Normalize (validate, clamp, resolve
// keywords, derive the cache key), obtain the score set (LRU →
// singleflight → build), select, and evaluate. Errors wrapping
// ErrBadRequest or core.ErrBadParams/core.ErrTooLarge are caller errors;
// everything else is an internal or lifecycle (cancelled/deadline)
// failure.
func (e *Engine) Query(ctx context.Context, req *QueryRequest) (*Result, error) {
	key, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	alg := core.Algorithm(req.Algo)
	p := core.Params{K: req.SmallK, Lambda: req.Lambda, Gamma: req.Gamma}
	ent, status, ans, err := e.scoreSet(ctx, req, key.String(), alg, p)
	if err != nil {
		return nil, err
	}
	if ent.ss.K() <= req.SmallK {
		return nil, fmt.Errorf("%w: retrieved %d places; need more than k=%d",
			ErrBadRequest, ent.ss.K(), req.SmallK)
	}
	if ans == nil {
		if ans, err = ent.answer(ctx, alg, p, selectionMemo); err != nil {
			return nil, fmt.Errorf("select: %w", err)
		}
	}
	return &Result{SS: ent.ss, Sel: ans.sel, Breakdown: ans.breakdown, Cache: status, ans: ans}, nil
}

// scoreSet returns the cached score-set entry for key, computing it at
// most once per key across concurrent callers. The caller that computes
// it (the leader) also selects its own answer for (alg, p) and memoises it
// before the entry is cached. The third result is that answer (nil for every other
// caller); the leader's selection failure is returned as the error.
func (e *Engine) scoreSet(ctx context.Context, req *QueryRequest, key string, alg core.Algorithm, p core.Params) (*entry, string, *answer, error) {
	for {
		if ent, ok := e.cache.get(key); ok {
			e.hits.Add(1)
			return ent, CacheHit, nil, nil
		}
		var leaderAns *answer
		var selErr error
		ent, shared, err := e.flight.do(ctx, key, func() (*entry, error) {
			// Double-check under the flight: a previous leader may have
			// cached the entry between our lookup and winning the flight,
			// which keeps "builds per key" at exactly one.
			if ent, ok := e.cache.get(key); ok {
				return ent, nil
			}
			ss, err := e.build(ctx, req)
			if err != nil {
				return nil, err
			}
			ent := newEntry(req, ss)
			if ss.K() > p.K {
				leaderAns, selErr = ent.answer(ctx, alg, p, selectionMemo)
			}
			e.cache.add(key, ent)
			return ent, nil
		})
		if err == nil {
			if shared {
				e.coalesced.Add(1)
				return ent, CacheCoalesced, nil, nil
			}
			e.misses.Add(1)
			if selErr != nil {
				return nil, "", nil, fmt.Errorf("select: %w", selErr)
			}
			return ent, CacheMiss, leaderAns, nil
		}
		if shared && ctx.Err() == nil {
			// The shared failure was the leader's (its cancellation, or its
			// panic), not ours: retry, becoming the new leader if needed. A
			// deterministic build failure recurs on the retry and is then
			// returned as our own (shared = false).
			continue
		}
		if !shared {
			e.buildErrors.Add(1)
		}
		return nil, "", nil, err
	}
}

// build runs retrieval plus Step 1 for req on the caller's context,
// against the corpus epoch the request pinned when it was created, and
// returns the score set. The per-stage spans land on the caller's
// trace, and the caller's deadline and cancellation govern the
// computation through the core checkpoints.
func (e *Engine) build(ctx context.Context, req *QueryRequest) (*core.ScoreSet, error) {
	e.builds.Add(1)
	loc := geo.Pt(req.X, req.Y)
	endRetrieve := telemetry.StartSpan(ctx, telemetry.StageRetrieve)
	places, err := req.snap.d.Retrieve(dataset.Query{Loc: loc, Keywords: req.kwSet}, req.K)
	endRetrieve()
	if err != nil {
		return nil, fmt.Errorf("retrieve: %w", err)
	}
	if len(places) < 2 {
		return nil, fmt.Errorf("%w: retrieved %d places; need more than k=1",
			ErrBadRequest, len(places))
	}
	opt := core.ScoreOptions{Gamma: req.Gamma, Spatial: req.spatial}
	switch req.spatial {
	case core.SpatialSquaredGrid:
		opt.SquaredTable = e.SquaredTable()
	case core.SpatialRadialGrid:
		opt.RadialTable = e.RadialTable()
	}
	ss, err := core.ComputeScoresCtx(ctx, loc, places, opt)
	if err != nil {
		return nil, fmt.Errorf("score: %w", err)
	}
	return ss, nil
}

// Stats is a point-in-time snapshot of the Engine's reuse counters. The
// counters are read individually; a snapshot under concurrent traffic is
// consistent per field, not across fields.
type Stats struct {
	// Hits counts requests served a score set straight from the LRU.
	Hits uint64
	// Misses counts requests that computed (and cached) a score set.
	Misses uint64
	// Coalesced counts requests that waited on an identical concurrent
	// request's computation instead of duplicating it.
	Coalesced uint64
	// Evictions counts LRU evictions.
	Evictions uint64
	// Builds counts score-set builds started; BuildErrors the ones that
	// failed (failures are never cached).
	Builds, BuildErrors uint64
	// Explains counts cache-bypassing Explain evaluations.
	Explains uint64
	// Epoch is the currently published corpus epoch; Mutations counts the
	// batches that advanced it.
	Epoch, Mutations uint64
	// PlacesUpserted and PlacesDeleted count individual mutation
	// operations that took effect across all batches.
	PlacesUpserted, PlacesDeleted uint64
	// KeptEntries counts resident score sets that a mutation could not
	// change and so carried into its epoch; SweptEntries counts the ones
	// it removed instead (distinct from capacity Evictions). See Mutate.
	KeptEntries, SweptEntries uint64
	// Places is the current corpus size.
	Places int
	// Entries and Capacity describe the LRU occupancy.
	Entries, Capacity int
	// CacheBytes is the score-set memory of the resident entries
	// (core.ScoreSet.Bytes, counted once at insert). Their answer memos
	// are not included.
	CacheBytes int
	// SquaredTables and RadialResolutions count the process's shared grid
	// tables built so far, per kind (grid.SharedTableStats); TableBytes is
	// their combined footprint. Every engine of the process reports the
	// same tables.
	SquaredTables, RadialResolutions int
	TableBytes                       int
}

// HitRatio returns Hits over cache lookups (hits + misses + coalesced),
// or 0 before any lookup has happened. Explain bypasses are not lookups.
func (s Stats) HitRatio() float64 {
	lookups := s.Hits + s.Misses + s.Coalesced
	if lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(lookups)
}

// Stats returns a snapshot of the Engine's counters.
func (e *Engine) Stats() Stats {
	snap := e.snap.Load()
	s := Stats{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		Coalesced:      e.coalesced.Load(),
		Evictions:      e.cache.evicted(),
		Builds:         e.builds.Load(),
		BuildErrors:    e.buildErrors.Load(),
		Explains:       e.explains.Load(),
		Epoch:          snap.epoch,
		Mutations:      e.mutations.Load(),
		PlacesUpserted: e.upserted.Load(),
		PlacesDeleted:  e.deleted.Load(),
		KeptEntries:    e.kept.Load(),
		SweptEntries:   e.swept.Load(),
		Places:         len(snap.d.Places),
		Entries:        e.cache.len(),
		Capacity:       e.opt.CacheEntries,
		CacheBytes:     e.cache.bytes(),
	}
	var squared bool
	squared, s.RadialResolutions, s.TableBytes = grid.SharedTableStats()
	if squared {
		s.SquaredTables = 1
	}
	return s
}

// entry is one LRU slot: a score set plus its per-(algorithm, k, λ)
// answer memo — the selection and everything rendered from it.
type entry struct {
	ss *core.ScoreSet
	// q and k are what ss was retrieved for: the resolved keyword set and
	// location, and K after clamping. Mutate scores a batch against them
	// to decide whether the entry outlives it (see survives).
	q dataset.Query
	k int
	// size is ss.Bytes(), fixed when the entry is made; the LRU sums it.
	size int
	mu   sync.Mutex
	sels map[selKey]*answer
}

func newEntry(req *QueryRequest, ss *core.ScoreSet) *entry {
	return &entry{
		ss:   ss,
		q:    dataset.Query{Loc: geo.Pt(req.X, req.Y), Keywords: req.kwSet},
		k:    req.K,
		size: ss.Bytes(),
		sels: make(map[selKey]*answer),
	}
}

// survives reports whether d, the corpus after a batch whose delta is st,
// retrieves exactly en's S for en's query, so that the score set and
// every answer memoised on it stay bit for bit what a fresh build on d
// would give. It holds when S has all K places and every record the
// batch removed or added scores strictly below S's K-th retrieval score:
// a removed record below it was no member, an added one ranks below
// every member, and ApplyCtx keeps the survivors' relative slot order,
// so the (score desc, slot asc) order of S is unchanged too. A tie at
// the K-th score counts as not below, so the rule only ever drops an
// entry it cannot prove unchanged.
func (en *entry) survives(d *dataset.Dataset, st dataset.ApplyStats) bool {
	places := en.ss.Places
	if len(places) != en.k || d.Config.Extent <= 0 {
		return false
	}
	kth := places[len(places)-1].Rel // retrieval emits S best first
	for _, recs := range [...][]dataset.PlaceRecord{st.Removed, st.Added} {
		for _, r := range recs {
			if !(d.Relevance(en.q, r) < kth) {
				return false
			}
		}
	}
	return true
}
