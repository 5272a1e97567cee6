package dataset

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/textctx"
)

// Upsert inserts or replaces one place, keyed by its label. Context words
// are interned on apply; unknown words grow the (copied) dictionary.
type Upsert struct {
	ID      string   `json:"id"`
	X       float64  `json:"x"`
	Y       float64  `json:"y"`
	Context []string `json:"context,omitempty"`
}

// Batch is one corpus mutation: deletes are applied first, then upserts in
// order (so a delete+upsert of the same ID replaces the place, and the
// last of two upserts of the same ID wins).
type Batch struct {
	Upserts []Upsert
	Deletes []string
}

// Size returns the number of individual operations in the batch.
func (b Batch) Size() int { return len(b.Upserts) + len(b.Deletes) }

// ApplyStats summarises what one Apply call changed.
type ApplyStats struct {
	// Upserted and Deleted count the operations that took effect.
	Upserted, Deleted int
	// Missing lists delete IDs that named no live place (not an error:
	// deletes are idempotent).
	Missing []string
	// NewWords counts dictionary entries the batch introduced.
	NewWords int
	// Removed and Added are the batch's delta: the old corpus's records
	// the batch took out (deleted places, and the old version of every
	// replaced one) and the records its upserts wrote, in batch order. A
	// record may repeat, and an ID upserted twice adds both versions.
	Removed, Added []PlaceRecord
}

// Apply returns a new Dataset with b applied, leaving d untouched: the
// place slice is copied, the IR-tree is rebuilt over the surviving places,
// and the dictionary is shared with d unless the batch introduces unknown
// words, in which case a clone is grown instead (interning is append-only,
// so every identifier d assigned keeps its meaning in the clone). The
// returned dataset therefore never shares mutable state with d, which is
// what lets an engine publish it as the next immutable corpus epoch while
// queries keep reading d.
//
// Like Load, the returned dataset carries no RDF graph: mutated places
// have no generated entity behind them.
//
// Validation failures (empty IDs, non-finite coordinates, a batch that
// would leave fewer than two places) return an error and no dataset.
func (d *Dataset) Apply(b Batch) (*Dataset, ApplyStats, error) {
	return d.ApplyCtx(context.Background(), b)
}

// ApplyCtx is Apply with cooperative cancellation: ctx is checked before
// the O(n) place copy, periodically inside it, and before the index
// rebuild, so a cancelled mutation request stops paying for the copy
// instead of completing it. Termination surfaces as core.ErrCancelled /
// core.ErrDeadline (wrapping the context error), mirroring the scoring
// and selection loops.
func (d *Dataset) ApplyCtx(ctx context.Context, b Batch) (*Dataset, ApplyStats, error) {
	var st ApplyStats
	if b.Size() == 0 {
		return nil, st, fmt.Errorf("dataset: empty mutation batch")
	}
	for _, u := range b.Upserts {
		if u.ID == "" {
			return nil, st, fmt.Errorf("dataset: upsert with empty id")
		}
		if !geo.Pt(u.X, u.Y).Valid() {
			return nil, st, fmt.Errorf("dataset: upsert %q at non-finite location (%v, %v)", u.ID, u.X, u.Y)
		}
	}

	// Copy the dictionary only when the batch actually introduces unknown
	// words; otherwise the epochs share it (reads of an unmutated Dict are
	// safe from any number of goroutines).
	dict := d.Dict
	needClone := false
scan:
	for _, u := range b.Upserts {
		for _, w := range u.Context {
			if _, ok := dict.Lookup(w); !ok {
				needClone = true
				break scan
			}
		}
	}
	if needClone {
		dict = d.Dict.Clone()
	}

	// The copy below is the O(n) cost of snapshot isolation; check the
	// context before starting and every checkpointStride places during
	// it, so an abandoned request does not finish the copy it no longer
	// wants.
	const checkpointStride = 4096
	if err := core.CtxErr(ctx); err != nil {
		return nil, st, err
	}

	oldID := make(map[string]int, len(d.Places))
	for i, p := range d.Places {
		oldID[p.Label] = i
	}

	drop := make(map[int]bool, len(b.Deletes))
	for _, id := range b.Deletes {
		if i, ok := oldID[id]; ok && !drop[i] {
			drop[i] = true
			st.Removed = append(st.Removed, d.Places[i])
			st.Deleted++
		} else {
			st.Missing = append(st.Missing, id)
		}
	}

	places := make([]PlaceRecord, 0, len(d.Places)+len(b.Upserts))
	for i, p := range d.Places {
		if i%checkpointStride == 0 && i > 0 {
			if err := core.CtxErr(ctx); err != nil {
				return nil, st, err
			}
		}
		if !drop[i] {
			places = append(places, p)
		}
	}
	// The compaction above shifted indices; rebuild the ID map over it.
	byID := make(map[string]int, len(places))
	for i, p := range places {
		byID[p.Label] = i
	}

	for _, u := range b.Upserts {
		if i, ok := oldID[u.ID]; ok {
			st.Removed = append(st.Removed, d.Places[i])
		}
		before := dict.Len()
		rec := PlaceRecord{
			Label:   u.ID,
			Loc:     geo.Pt(u.X, u.Y),
			Context: textctx.NewSetFromStrings(dict, u.Context),
		}
		st.NewWords += dict.Len() - before
		st.Added = append(st.Added, rec)
		if i, ok := byID[u.ID]; ok {
			places[i] = rec
		} else {
			byID[u.ID] = len(places)
			places = append(places, rec)
		}
		st.Upserted++
	}

	if len(places) < 2 {
		return nil, ApplyStats{}, fmt.Errorf("dataset: mutation would leave %d places; need at least 2", len(places))
	}

	// Last exit before the index rebuild, the other O(n log n) chunk of
	// the batch cost.
	if err := core.CtxErr(ctx); err != nil {
		return nil, st, err
	}

	idx, err := buildIndex(len(places), func(i int) *PlaceRecord { return &places[i] })
	if err != nil {
		return nil, ApplyStats{}, fmt.Errorf("dataset: rebuild index: %w", err)
	}
	return &Dataset{Config: d.Config, Dict: dict, Places: places, Index: idx}, st, nil
}
