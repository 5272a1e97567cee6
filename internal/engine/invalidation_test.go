package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// poolQuery is one query of an invalidation test's pool.
type poolQuery struct {
	x, y     float64
	K, k     int
	algo     string
	spatial  string
	keywords []string
}

// answerOf runs q on e and returns the cache verdict and the response
// bytes, without request ID or timings and with the verdict blanked: the
// one field a fresh engine's answer cannot share.
func answerOf(t testing.TB, e *Engine, q poolQuery) (string, []byte) {
	t.Helper()
	req := e.NewRequest()
	req.X, req.Y, req.K, req.SmallK = q.x, q.y, q.K, q.k
	req.Algo, req.Spatial, req.Keywords = q.algo, q.spatial, q.keywords
	res, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("query %+v: %v", q, err)
	}
	body, err := e.AppendResponse(nil, req, res, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	verdict := []byte(`"cache":"` + res.Cache + `"`)
	if !bytes.Contains(body, verdict) {
		t.Fatalf("response carries no %s: %s", verdict, body)
	}
	return res.Cache, bytes.Replace(body, verdict, []byte(`"cache":""`), 1)
}

// matchFresh answers every pool query on e and on a fresh engine built on
// e's current corpus at e's epoch, fails on any byte difference, and
// returns e's cache verdicts.
func matchFresh(t testing.TB, e *Engine, pool []poolQuery, shards int) []string {
	t.Helper()
	d, epoch := e.Snapshot()
	fresh := New(d, Options{InitialEpoch: epoch, Shards: shards})
	verdicts := make([]string, len(pool))
	for i, q := range pool {
		var got []byte
		verdicts[i], got = answerOf(t, e, q)
		if _, want := answerOf(t, fresh, q); !bytes.Equal(got, want) {
			t.Fatalf("epoch %d, query %+v (%s): the response differs from a fresh engine's\n got: %s\nwant: %s",
				epoch, q, verdicts[i], got, want)
		}
	}
	return verdicts
}

// upsertOf is an upsert that writes p's location and context under id.
func upsertOf(d *dataset.Dataset, id string, p core.Place) dataset.Upsert {
	return dataset.Upsert{ID: id, X: p.Loc.X, Y: p.Loc.Y, Context: p.Context.Words(d.Dict)}
}

// TestScopedInvalidation: after each kind of batch, an entry is kept (and
// answered as a hit) exactly when the batch cannot change its S, and
// every answer — kept or rebuilt — matches, byte for byte, what a fresh
// engine on that epoch's corpus answers at that epoch.
func TestScopedInvalidation(t *testing.T) {
	ctx := context.Background()
	// The first query is the one each case asserts on; the second rides
	// along for byte equality with keywords, another algorithm and the
	// exact spatial method.
	pool := []poolQuery{
		{x: 50, y: 50, K: 40, k: 5, algo: "abp", spatial: "squared"},
		{x: 30, y: 70, K: 30, k: 6, algo: "iadu", spatial: "exact"},
	}
	big := mutTestData(t, 31, 300)
	pool[1].keywords = big.Places[0].Context.Words(big.Dict)[:1]

	for _, tc := range []struct {
		name   string
		corpus *dataset.Dataset
		shards int
		batch  func(t *testing.T, d *dataset.Dataset, members []core.Place) Mutation
		kept   bool
	}{
		{name: "far upsert", kept: true,
			batch: func(*testing.T, *dataset.Dataset, []core.Place) Mutation {
				return Mutation{Upserts: []dataset.Upsert{{ID: "t:far", X: 99, Y: 99, Context: []string{"far"}}}}
			}},
		{name: "upsert at the query point",
			batch: func(*testing.T, *dataset.Dataset, []core.Place) Mutation {
				return Mutation{Upserts: []dataset.Upsert{{ID: "t:near", X: 50, Y: 50}}}
			}},
		{name: "member replaced",
			batch: func(_ *testing.T, d *dataset.Dataset, members []core.Place) Mutation {
				m := members[len(members)/2]
				return Mutation{Upserts: []dataset.Upsert{upsertOf(d, m.ID, m)}}
			}},
		{name: "member deleted",
			batch: func(_ *testing.T, _ *dataset.Dataset, members []core.Place) Mutation {
				return Mutation{Deletes: []string{members[len(members)-1].ID}}
			}},
		{name: "non-member deleted", kept: true,
			batch: func(_ *testing.T, d *dataset.Dataset, _ []core.Place) Mutation {
				// The place farthest from the query point scores lowest.
				far, dist := "", -1.0
				for _, p := range d.Places {
					if dd := math.Hypot(p.Loc.X-50, p.Loc.Y-50); dd > dist {
						far, dist = p.Label, dd
					}
				}
				return Mutation{Deletes: []string{far}}
			}},
		{name: "a place at exactly the K-th score with a lower slot",
			batch: func(t *testing.T, d *dataset.Dataset, members []core.Place) Mutation {
				kth := members[len(members)-1]
				in := map[string]bool{}
				for _, m := range members {
					in[m.ID] = true
				}
				// Rewrite a non-member slot before the K-th member's as
				// its copy: the two tie, and the lower slot ranks first.
				for _, p := range d.Places {
					if p.Label == kth.ID {
						break
					}
					if !in[p.Label] {
						return Mutation{Upserts: []dataset.Upsert{upsertOf(d, p.Label, kth)}}
					}
				}
				t.Fatal("no non-member precedes the K-th member")
				return Mutation{}
			}},
		{name: "a corpus smaller than K", corpus: mutTestData(t, 32, 30),
			batch: func(*testing.T, *dataset.Dataset, []core.Place) Mutation {
				return Mutation{Upserts: []dataset.Upsert{{ID: "t:far", X: 99, Y: 99}}}
			}},
		{name: "a batch that interns new words", kept: true,
			batch: func(*testing.T, *dataset.Dataset, []core.Place) Mutation {
				return Mutation{Upserts: []dataset.Upsert{
					{ID: "t:words", X: 98, Y: 2, Context: []string{"never-seen-a", "never-seen-b"}},
				}}
			}},
		{name: "3 shards, far upsert", shards: 3, kept: true,
			batch: func(*testing.T, *dataset.Dataset, []core.Place) Mutation {
				return Mutation{Upserts: []dataset.Upsert{{ID: "t:far", X: 99, Y: 99}}}
			}},
		{name: "3 shards, upsert at the query point", shards: 3,
			batch: func(*testing.T, *dataset.Dataset, []core.Place) Mutation {
				return Mutation{Upserts: []dataset.Upsert{{ID: "t:near", X: 50, Y: 50}}}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.corpus
			if d == nil {
				d = big
			}
			e := New(d, Options{Shards: tc.shards, InitialEpoch: 4})
			matchFresh(t, e, pool, tc.shards)
			res, err := e.Query(ctx, func() *QueryRequest {
				req := e.NewRequest()
				req.X, req.Y, req.K, req.SmallK = pool[0].x, pool[0].y, pool[0].K, pool[0].k
				return req
			}())
			if err != nil {
				t.Fatal(err)
			}
			before := res.SS.Places
			if _, err := e.Mutate(ctx, tc.batch(t, d, before)); err != nil {
				t.Fatal(err)
			}
			want := CacheMiss
			if tc.kept {
				want = CacheHit
			}
			if got := matchFresh(t, e, pool, tc.shards)[0]; got != want {
				t.Errorf("after the batch the entry answers as a %s, want a %s", got, want)
			}
			st := e.Stats()
			if st.KeptEntries+st.SweptEntries != uint64(len(pool)) {
				t.Errorf("kept %d + swept %d entries, want %d in all", st.KeptEntries, st.SweptEntries, len(pool))
			}
		})
	}
}

var (
	fuzzCorpusOnce sync.Once
	fuzzCorpusVal  *dataset.Dataset
)

// FuzzScopedInvalidation runs random batches — upserts anywhere and at the
// pool's query points, replacements and deletes of existing places, in one
// or three shards — against a query pool, and after every batch checks
// each pool answer byte for byte against a fresh engine on that epoch's
// corpus. A kept entry that a batch changed fails it.
func FuzzScopedInvalidation(f *testing.F) {
	f.Add([]byte{0, 0, 10, 10, 3, 1, 0, 128, 128, 0x82, 7, 9, 2, 3, 200, 1, 1})
	f.Add([]byte{2, 1, 200, 40, 60, 0x80, 2, 5, 9, 1, 3, 3, 4, 0x83, 0, 0, 0})
	f.Add([]byte{1, 0x81, 1, 128, 128, 0x82, 0, 30, 7, 0x81, 2, 128, 129, 3, 9, 9, 9, 0x83, 1, 2, 3})
	pool := []poolQuery{
		{x: 30, y: 30, K: 30, k: 4, algo: "abp", spatial: "squared"},
		{x: 60, y: 50, K: 25, k: 5, algo: "iadu", spatial: "exact"},
		{x: 50, y: 80, K: 40, k: 3, algo: "abp", spatial: "radial"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCorpusOnce.Do(func() { fuzzCorpusVal = mutTestData(t, 33, 200) })
		d := fuzzCorpusVal
		if pool[1].keywords == nil {
			pool[1].keywords = d.Places[1].Context.Words(d.Dict)[:1]
		}
		words := d.Dict.Words()
		if len(data) == 0 {
			return
		}
		shards := 1 + 2*int(data[0]%2)
		data = data[1:]
		e := New(d, Options{Shards: shards})
		matchFresh(t, e, pool, shards)

		coord := func(b byte) float64 { return float64(b) * 100 / 255 }
		var m Mutation
		flush := func() {
			if m.Size() == 0 {
				return
			}
			if _, err := e.Mutate(context.Background(), m); err != nil {
				t.Fatal(err)
			}
			m = Mutation{}
			matchFresh(t, e, pool, shards)
		}
		defer flush()
		for ops := 0; len(data) >= 4 && ops < 12; ops++ {
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			cur := e.Corpus()
			victim := cur.Places[(int(a)<<8|int(b))%len(cur.Places)]
			switch op % 4 {
			case 0: // a place anywhere, under one of a few recurring IDs
				m.Upserts = append(m.Upserts, dataset.Upsert{ID: fmt.Sprintf("fz:%d", c%8),
					X: coord(a), Y: coord(b), Context: []string{words[int(c)%len(words)]}})
			case 1: // a place at or near a pool query point
				q := pool[int(a)%len(pool)]
				m.Upserts = append(m.Upserts, dataset.Upsert{ID: fmt.Sprintf("fz:%d", c%8),
					X: q.x + float64(int(b)-128)/16, Y: q.y + float64(int(c)-128)/16})
			case 2: // an existing place moved, or rewritten in place
				m.Upserts = append(m.Upserts, dataset.Upsert{ID: victim.Label,
					X: victim.Loc.X + float64(int(c)-128)/32, Y: victim.Loc.Y,
					Context: victim.Context.Words(cur.Dict)})
			case 3:
				m.Deletes = append(m.Deletes, victim.Label)
			}
			if op&0x80 != 0 {
				flush()
			}
		}
	})
}
