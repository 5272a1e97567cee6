package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// fakeWAL records appends and can be told to fail, standing in for
// internal/wal so the engine's ordering contract is testable in
// isolation.
type fakeWAL struct {
	appends []uint64
	fail    error
}

func (f *fakeWAL) Append(_ context.Context, epoch uint64, payload []byte) error {
	if f.fail != nil {
		return f.fail
	}
	if _, err := DecodeMutation(payload); err != nil {
		return fmt.Errorf("unreadable payload logged: %w", err)
	}
	f.appends = append(f.appends, epoch)
	return nil
}

func walMutation(i int) Mutation {
	return Mutation{Upserts: []dataset.Upsert{{
		ID: fmt.Sprintf("wal:%d", i), X: 1, Y: 1, Context: []string{"w"},
	}}}
}

// TestMutateAppendsBeforePublish: every published epoch was logged with
// exactly that epoch number, and the log never runs behind the engine.
func TestMutateAppendsBeforePublish(t *testing.T) {
	w := &fakeWAL{}
	e := New(mutTestData(t, 31, 200), Options{})
	e.SetWAL(w)
	for i := 1; i <= 3; i++ {
		res, err := e.Mutate(context.Background(), walMutation(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != uint64(i) {
			t.Fatalf("published epoch %d, want %d", res.Epoch, i)
		}
	}
	if len(w.appends) != 3 {
		t.Fatalf("wal saw %d appends, want 3", len(w.appends))
	}
	for i, ep := range w.appends {
		if ep != uint64(i+1) {
			t.Errorf("append %d logged epoch %d", i, ep)
		}
	}
}

// TestMutateWALFailureNotPublished: an append failure returns ErrWAL and
// the epoch does not move — the batch was neither acknowledged nor made
// visible, so a restart cannot resurrect it.
func TestMutateWALFailureNotPublished(t *testing.T) {
	w := &fakeWAL{fail: errors.New("disk gone")}
	e := New(mutTestData(t, 32, 200), Options{})
	e.SetWAL(w)
	places := len(e.Corpus().Places)

	_, err := e.Mutate(context.Background(), walMutation(1))
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("err = %v, want ErrWAL", err)
	}
	if e.Epoch() != 0 || len(e.Corpus().Places) != places {
		t.Fatalf("failed append published state: epoch %d, %d places", e.Epoch(), len(e.Corpus().Places))
	}

	// The failure is transient from the engine's view: once the log
	// recovers, the same batch goes through at the same epoch.
	w.fail = nil
	res, err := e.Mutate(context.Background(), walMutation(1))
	if err != nil || res.Epoch != 1 {
		t.Fatalf("retry after wal recovery: %v, epoch %v", err, res)
	}
}

// TestMutateInitialEpoch: an engine built at a recovered epoch publishes
// from there, so replayed history and new mutations share one sequence.
func TestMutateInitialEpoch(t *testing.T) {
	w := &fakeWAL{}
	e := New(mutTestData(t, 33, 200), Options{InitialEpoch: 41})
	e.SetWAL(w)
	if e.Epoch() != 41 {
		t.Fatalf("initial epoch = %d, want 41", e.Epoch())
	}
	res, err := e.Mutate(context.Background(), walMutation(1))
	if err != nil || res.Epoch != 42 {
		t.Fatalf("mutate from recovered epoch: %v, %+v", err, res)
	}
	if len(w.appends) != 1 || w.appends[0] != 42 {
		t.Fatalf("wal appends = %v, want [42]", w.appends)
	}
}

// TestSetWALAttachesAfterReplay: mutations before SetWAL (replay) are
// not logged; mutations after it are.
func TestSetWALAttachesAfterReplay(t *testing.T) {
	e := New(mutTestData(t, 34, 200), Options{})
	if _, err := e.Mutate(context.Background(), walMutation(1)); err != nil {
		t.Fatal(err)
	}
	w := &fakeWAL{}
	e.SetWAL(w)
	if _, err := e.Mutate(context.Background(), walMutation(2)); err != nil {
		t.Fatal(err)
	}
	if len(w.appends) != 1 || w.appends[0] != 2 {
		t.Fatalf("wal appends = %v, want only the post-attach epoch 2", w.appends)
	}
}

// TestMutateHonoursContext: a cancelled context abandons the batch
// before anything is logged or published.
func TestMutateHonoursContext(t *testing.T) {
	w := &fakeWAL{}
	e := New(mutTestData(t, 35, 500), Options{})
	e.SetWAL(w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Mutate(ctx, walMutation(1))
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if e.Epoch() != 0 || len(w.appends) != 0 {
		t.Fatalf("cancelled mutation left traces: epoch %d, %d appends", e.Epoch(), len(w.appends))
	}

	// An already-expired deadline maps to the deadline error.
	dctx, dcancel := context.WithTimeout(context.Background(), -time.Nanosecond)
	defer dcancel()
	if _, err := e.Mutate(dctx, walMutation(1)); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// TestSnapshotConsistentPair: Snapshot returns the dataset and epoch of
// one published state, the pair compaction persists together.
func TestSnapshotConsistentPair(t *testing.T) {
	e := New(mutTestData(t, 36, 200), Options{InitialEpoch: 7})
	d, epoch := e.Snapshot()
	if epoch != 7 || d == nil || len(d.Places) != 200 {
		t.Fatalf("snapshot = %d places at epoch %d, want 200 at 7", len(d.Places), epoch)
	}
	if _, err := e.Mutate(context.Background(), walMutation(1)); err != nil {
		t.Fatal(err)
	}
	if _, epoch = e.Snapshot(); epoch != 8 {
		t.Fatalf("post-mutation snapshot epoch = %d, want 8", epoch)
	}
}
