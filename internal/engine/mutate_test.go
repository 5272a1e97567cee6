package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// mutTestData generates a fresh corpus per test: mutation tests must not
// share the package-wide read-only dataset.
func mutTestData(t *testing.T, seed int64, places int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DBpediaLike(seed)
	cfg.Places = places
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMutatePublishesNewEpoch(t *testing.T) {
	e := New(mutTestData(t, 21, 300), Options{})
	if e.Epoch() != 0 {
		t.Fatalf("fresh engine epoch = %d, want 0", e.Epoch())
	}
	before := len(e.Corpus().Places)
	victim := e.Corpus().Places[0].Label

	res, err := e.Mutate(context.Background(), Mutation{
		Upserts: []dataset.Upsert{{ID: "poi:new", X: 5, Y: 5, Context: []string{"fresh-word"}}},
		Deletes: []string{victim, "ghost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || e.Epoch() != 1 {
		t.Errorf("epoch = %d / %d, want 1", res.Epoch, e.Epoch())
	}
	if res.Upserted != 1 || res.Deleted != 1 || len(res.Missing) != 1 {
		t.Errorf("result = %+v", res)
	}
	if res.Places != before || len(e.Corpus().Places) != before {
		t.Errorf("places = %d, want %d", res.Places, before)
	}

	st := e.Stats()
	if st.Epoch != 1 || st.Mutations != 1 || st.PlacesUpserted != 1 || st.PlacesDeleted != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Invalid batches are caller errors and publish nothing.
	if _, err := e.Mutate(context.Background(), Mutation{}); err == nil {
		t.Error("empty mutation accepted")
	}
	if _, err := e.Mutate(context.Background(), Mutation{
		Upserts: []dataset.Upsert{{ID: ""}},
	}); err == nil {
		t.Error("invalid upsert accepted")
	} else if !strings.Contains(err.Error(), "bad request") {
		t.Errorf("invalid upsert error %v does not wrap ErrBadRequest", err)
	}
	if e.Epoch() != 1 {
		t.Errorf("failed mutations moved the epoch to %d", e.Epoch())
	}
}

// TestMutationSweepsStaleEntries: after a mutation, a score set the batch
// cannot change (a far upsert) is carried into the new epoch and answers
// as a hit that reports the new epoch, while one the batch can change (an
// upsert at the query point) is proactively removed rather than lingering
// until capacity pressure. A request pinned to the old epoch rebuilds on
// its own corpus.
func TestMutationSweepsStaleEntries(t *testing.T) {
	e := New(mutTestData(t, 22, 300), Options{})
	ctx := context.Background()
	ask := func() *QueryRequest {
		req := e.NewRequest()
		req.K, req.SmallK = 60, 5
		return req
	}
	query := func(what, want string) *Result {
		t.Helper()
		req := ask()
		res, err := e.Query(ctx, req)
		if err != nil || res.Cache != want {
			t.Fatalf("%s: %v / %v, want %s", what, res, err, want)
		}
		body, err := e.AppendResponse(nil, req, res, nil, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if epoch := fmt.Sprintf(`"corpus_epoch":%d,`, e.Epoch()); !strings.Contains(string(body), epoch) {
			t.Fatalf("%s: response does not carry %s: %s", what, epoch, body)
		}
		return res
	}

	query("first query", CacheMiss)
	query("second query", CacheHit)
	if st := e.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}

	// Pin a request to epoch 0 before mutating.
	old := ask()

	if _, err := e.Mutate(ctx, Mutation{
		Upserts: []dataset.Upsert{{ID: "poi:far", X: 99, Y: 99, Context: []string{"far"}}},
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.KeptEntries != 1 || st.SweptEntries != 0 || st.Entries != 1 {
		t.Errorf("after the far upsert: kept = %d swept = %d entries = %d, want 1, 0 and 1",
			st.KeptEntries, st.SweptEntries, st.Entries)
	}
	query("after the far upsert", CacheHit)

	// A place at the query point outranks every member: the entry goes,
	// and identical parameters rebuild under the new epoch's key (exactly
	// one build per (epoch, key))...
	x, y := old.X, old.Y
	if _, err := e.Mutate(ctx, Mutation{
		Upserts: []dataset.Upsert{{ID: "poi:near", X: x, Y: y, Context: []string{"near"}}},
	}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.KeptEntries != 1 || st.SweptEntries != 1 || st.Entries != 0 {
		t.Errorf("after the near upsert: kept = %d swept = %d entries = %d, want 1, 1 and 0",
			st.KeptEntries, st.SweptEntries, st.Entries)
	}
	if res := query("after the near upsert", CacheMiss); res.SS.Places[0].ID != "poi:near" {
		t.Errorf("best place after the near upsert = %q, want poi:near", res.SS.Places[0].ID)
	}
	query("repeat after the near upsert", CacheHit)

	// ...and the epoch-0 request still evaluates against its pinned
	// corpus: its key was carried away, so it rebuilds, on epoch-0 data.
	resOld, err := e.Query(ctx, old)
	if err != nil {
		t.Fatal(err)
	}
	if resOld.Cache != CacheMiss {
		t.Errorf("old-epoch query cache = %q, want miss (its entry left epoch 0)", resOld.Cache)
	}
	if old.Epoch() != 0 {
		t.Errorf("old request epoch = %d, want 0", old.Epoch())
	}
	for _, p := range resOld.SS.Places {
		if p.ID == "poi:far" || p.ID == "poi:near" {
			t.Errorf("epoch-0 query observed the later place %q", p.ID)
		}
	}

	if builds := e.Stats().Builds; builds != 3 {
		t.Errorf("builds = %d, want 3 (one per (epoch, key) whose S changed)", builds)
	}
}

// TestMutationRekeysThunderingHerd: requests pinned to different epochs
// never share a cache key or a singleflight flight, so a herd racing a
// mutation cannot be handed a stale-epoch build.
func TestMutationRekeysThunderingHerd(t *testing.T) {
	e := New(mutTestData(t, 23, 300), Options{})
	ctx := context.Background()

	oldReq := e.NewRequest()
	oldReq.K, oldReq.SmallK = 60, 5
	oldKey, err := oldReq.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate(ctx, Mutation{
		Upserts: []dataset.Upsert{{ID: "poi:shift", X: 1, Y: 1, Context: []string{"shift"}}},
	}); err != nil {
		t.Fatal(err)
	}
	newReq := e.NewRequest()
	newReq.K, newReq.SmallK = 60, 5
	newKey, err := newReq.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if oldKey.String() == newKey.String() {
		t.Fatalf("identical parameters share key %q across epochs", oldKey)
	}
	if !strings.HasPrefix(oldKey.String(), "e=0;") || !strings.HasPrefix(newKey.String(), "e=1;") {
		t.Errorf("keys missing epoch prefixes: %q / %q", oldKey, newKey)
	}
}

// TestConcurrentMutateAndQueryEpochPinned is the isolation test the
// tentpole stands on, run under -race by the Makefile race target: a
// mutator republishes a block of places generation after generation while
// queries run; every query must observe exactly one generation — never a
// torn batch — because it reads the snapshot its request pinned.
func TestConcurrentMutateAndQueryEpochPinned(t *testing.T) {
	d := mutTestData(t, 24, 300)
	e := New(d, Options{CacheEntries: 64})
	ctx := context.Background()

	const block = 40
	ids := make([]string, block)
	for i := range ids {
		ids[i] = fmt.Sprintf("mut:%d", i)
	}
	// Generation g rewrites every block place's context to exactly
	// {"gen:<g>"}: within one epoch all block places have Equal contexts,
	// so a mixed-generation retrieval is immediately visible.
	mutate := func(g int) error {
		m := Mutation{}
		word := fmt.Sprintf("gen:%d", g)
		for i, id := range ids {
			m.Upserts = append(m.Upserts, dataset.Upsert{
				ID: id, X: 10 + float64(i%8), Y: 10 + float64(i/8), Context: []string{word},
			})
		}
		_, err := e.Mutate(ctx, m)
		return err
	}
	if err := mutate(0); err != nil {
		t.Fatal(err)
	}

	const generations = 25
	done := make(chan struct{})
	go func() {
		defer close(done)
		for g := 1; g <= generations; g++ {
			if err := mutate(g); err != nil {
				t.Errorf("generation %d: %v", g, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				req := e.NewRequest()
				req.X, req.Y = 12, 12
				req.K, req.SmallK = 30, 4
				epoch := req.Epoch()
				res, err := e.Query(ctx, req)
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				if req.Epoch() != epoch {
					t.Errorf("worker %d: request epoch moved %d -> %d", w, epoch, req.Epoch())
					return
				}
				var gen *int
				for _, p := range res.SS.Places {
					if !strings.HasPrefix(p.ID, "mut:") {
						continue
					}
					items := p.Context.Items()
					if len(items) != 1 {
						t.Errorf("worker %d: block place %q context %v", w, p.ID, items)
						return
					}
					g := int(items[0])
					if gen == nil {
						gen = &g
					} else if *gen != g {
						t.Errorf("worker %d query %d (epoch %d): torn batch — saw generation words %d and %d",
							w, i, epoch, *gen, g)
						return
					}
				}
			}
		}(w)
	}
	<-done
	wg.Wait()

	st := e.Stats()
	if st.Epoch != generations+1 || st.Mutations != generations+1 {
		t.Errorf("epoch = %d mutations = %d, want %d", st.Epoch, st.Mutations, generations+1)
	}

	// Quiesced: a final query sees the final generation on every block
	// place it retrieves.
	req := e.NewRequest()
	req.X, req.Y = 12, 12
	req.K, req.SmallK = 30, 4
	res, err := e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	finalWord := fmt.Sprintf("gen:%d", generations)
	finalID, ok := e.Corpus().Dict.Lookup(finalWord)
	if !ok {
		t.Fatalf("final generation word %q not interned", finalWord)
	}
	sawBlock := false
	for _, p := range res.SS.Places {
		if strings.HasPrefix(p.ID, "mut:") {
			sawBlock = true
			if !p.Context.Contains(finalID) {
				t.Errorf("place %q does not carry the final generation", p.ID)
			}
		}
	}
	if !sawBlock {
		t.Error("final query retrieved no block places; test exercised nothing")
	}
}
