package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// ErrWAL marks a mutation rejected because its write-ahead-log append
// failed: the batch was NOT applied, NOT published, and must not be
// considered acknowledged. Servers map it to 503 — the corpus keeps
// serving reads, the client may retry.
var ErrWAL = errors.New("engine: write-ahead log append failed")

// Mutation is one corpus mutation batch: deletes apply first, then
// upserts in order (dataset.Batch semantics).
type Mutation struct {
	Upserts []dataset.Upsert `json:"upserts,omitempty"`
	Deletes []string         `json:"deletes,omitempty"`
}

// Size returns the number of individual operations in the batch.
func (m Mutation) Size() int { return len(m.Upserts) + len(m.Deletes) }

// EncodeMutation serialises m as a WAL record payload; DecodeMutation
// inverts it during replay. JSON keeps the log self-describing and
// versionable (unknown fields are ignored on decode).
func EncodeMutation(m Mutation) ([]byte, error) { return json.Marshal(m) }

// DecodeMutation parses a WAL record payload written by EncodeMutation.
func DecodeMutation(payload []byte) (Mutation, error) {
	var m Mutation
	if err := json.Unmarshal(payload, &m); err != nil {
		return Mutation{}, fmt.Errorf("engine: decode mutation record: %w", err)
	}
	return m, nil
}

// MutationResult reports what one Mutate call published.
type MutationResult struct {
	// Epoch is the corpus epoch this batch published.
	Epoch uint64 `json:"epoch"`
	// Upserted and Deleted count the operations that took effect; Missing
	// lists delete IDs that named no live place.
	Upserted int      `json:"upserted"`
	Deleted  int      `json:"deleted"`
	Missing  []string `json:"missing,omitempty"`
	// Swept is the number of score sets the batch removed from the LRU:
	// those it could change, and any older epoch's (see Engine.Mutate).
	Swept int `json:"swept_entries"`
	// Places is the corpus size after the batch.
	Places int `json:"places"`
}

// Mutate applies m as one atomic batch and publishes the next corpus
// epoch. The new epoch is built copy-on-write off the current one
// (dataset.ShardView.Apply), so in-flight queries — pinned to the
// snapshot their request was created on — keep reading their epoch
// undisturbed and no query ever observes a half-applied batch.
//
// Cache keys carry the epoch, so after the swap every cached score set is
// unreachable under its old key. A score set is a function of S and q
// alone, and a batch whose removed and added records all score strictly
// below an entry's K-th retrieval score leaves that entry's S as it was
// (entry.survives): such an entry is re-keyed into the new epoch with
// its memoised answers, which render the epoch of the request reading
// them. Every other entry is swept. The rule costs one score per entry
// and delta record, under the LRU lock. The singleflight key carries the
// epoch too, so a herd racing the mutation can never be handed a
// stale-epoch build under the new epoch's key. The shared grid tables are
// untouched: they are corpus-independent (Theorem 7.1).
//
// Durability ordering: when a WAL is attached, the batch is appended to
// the log — and fsynced, under the log's SyncAlways policy — strictly
// before the epoch pointer swap. The last context check sits before the
// append: once the record is durable the mutation is committed and WILL
// be replayed after a crash, so nothing may fail it anymore, and
// conversely a batch whose append failed (ErrWAL) was never published
// and can never be resurrected. ctx termination earlier in the call —
// while waiting for the mutation lock, or during the O(n) copy, which
// ApplyCtx checks periodically — abandons the batch with the context's
// error before any of it becomes visible.
//
// Batches are serialised; each Mutate call costs one O(n) corpus copy
// plus an index rebuild, which is the price of strict snapshot isolation
// at this corpus scale. Validation failures wrap ErrBadRequest.
func (e *Engine) Mutate(ctx context.Context, m Mutation) (*MutationResult, error) {
	if m.Size() == 0 {
		return nil, fmt.Errorf("%w: empty mutation batch", ErrBadRequest)
	}
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	// Serialised batches can queue on mutMu; re-check before paying for
	// the copy a departed caller no longer wants.
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}

	cur := e.snap.Load()
	// The view's Apply runs the copy-on-write dataset.ApplyCtx and
	// rebuilds only the shards the batch touches, stamping them with the
	// new epoch (untouched shards keep their tree and epoch — that is how
	// per-shard epochs compose into the corpus epoch).
	next, nextView, st, err := cur.view.Apply(ctx, dataset.Batch{Upserts: m.Upserts, Deletes: m.Deletes}, cur.epoch+1)
	if err != nil {
		if errors.Is(err, core.ErrCancelled) || errors.Is(err, core.ErrDeadline) {
			return nil, err
		}
		// Every other Apply failure mode is a caller error (empty IDs,
		// non-finite coordinates, emptying the corpus).
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	// Point of no return: after a successful WAL append the batch is
	// durable and will be replayed on restart, so it must also be
	// published now — no error or cancellation path may exist between
	// the append and the pointer swap.
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if e.wal != nil {
		payload, err := EncodeMutation(m)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if err := e.wal.Append(ctx, cur.epoch+1, payload); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWAL, err)
		}
	}
	ns := &corpusSnapshot{epoch: cur.epoch + 1, view: nextView}
	e.snap.Store(ns)

	// After the swap nothing can look up an older epoch's key except
	// requests already pinned to it: carry the entries the batch cannot
	// change into the new epoch and sweep the rest, rather than waiting
	// for capacity pressure to push them out.
	kept, swept := e.cache.restamp(cur.epoch, func(en *entry) bool { return en.survives(next, st) })

	e.mutations.Add(1)
	e.upserted.Add(uint64(st.Upserted))
	e.deleted.Add(uint64(st.Deleted))
	e.kept.Add(uint64(kept))
	e.swept.Add(uint64(swept))
	return &MutationResult{
		Epoch:    ns.epoch,
		Upserted: st.Upserted,
		Deleted:  st.Deleted,
		Missing:  st.Missing,
		Swept:    swept,
		Places:   len(next.Places),
	}, nil
}
