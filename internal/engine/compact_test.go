package engine

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
)

var (
	missCorpusOnce sync.Once
	missCorpusVal  *dataset.Dataset
)

// missCorpus is the 20k-place DBpedia-like corpus of the benchmark's
// K=1000 miss workload (same generator seed), shared read-only by the
// tests that measure K=1000 entries.
func missCorpus(t testing.TB) *dataset.Dataset {
	t.Helper()
	missCorpusOnce.Do(func() {
		cfg := dataset.DBpediaLike(20210620)
		cfg.Places = 20000
		d, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		missCorpusVal = d
	})
	return missCorpusVal
}

// missQuery runs one query at a location derived from i — a fresh cache
// key for every i — and renders its response, so the entry's answer memo
// is complete.
func missQuery(t testing.TB, e *Engine, i, K, k int, algo, spatial string) *Result {
	t.Helper()
	req := e.NewRequest()
	req.X, req.Y = 20+float64(i%60), 20+float64(i/60)
	req.K, req.SmallK, req.Algo, req.Spatial = K, k, algo, spatial
	res, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendResponse(nil, req, res, nil, "", nil); err != nil {
		t.Fatal(err)
	}
	return res
}

// entryBudget is the most a resident K=1000 entry may retain: its score
// set (~92 KB, no pair scores) plus the answer memo.
const entryBudget = 256 << 10

// TestCompactEntryFootprint: the heap grows by at most entryBudget per
// resident K=1000 entry, measured after GC over 32 entries.
func TestCompactEntryFootprint(t *testing.T) {
	e := New(missCorpus(t), Options{CacheEntries: 64})
	missQuery(t, e, 0, 1000, 20, "abp", "squared") // builds the shared table
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	const n = 32
	for i := 1; i <= n; i++ {
		missQuery(t, e, i, 1000, 20, "abp", "squared")
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if st := e.Stats(); st.Entries != n+1 {
		t.Fatalf("%d resident entries, want %d", st.Entries, n+1)
	}
	per := (int64(ms.HeapAlloc) - int64(before)) / n
	t.Logf("a resident K=1000 entry retains %d bytes", per)
	if per > entryBudget {
		t.Errorf("a resident K=1000 entry retains %d bytes, budget %d", per, entryBudget)
	}
	runtime.KeepAlive(e)
}

// TestCacheBytes: Stats.CacheBytes counts the resident score sets — more
// than nothing and at most entryBudget each for 8 K=1000 entries — and
// follows evictions and sweeps exactly.
func TestCacheBytes(t *testing.T) {
	e := New(missCorpus(t), Options{CacheEntries: 8})
	if b := e.Stats().CacheBytes; b != 0 {
		t.Fatalf("empty cache reports %d bytes", b)
	}
	for i := 0; i < 8; i++ {
		missQuery(t, e, i, 1000, 20, "abp", "squared")
	}
	st := e.Stats()
	if st.Entries != 8 || st.CacheBytes <= 0 || st.CacheBytes > 8*entryBudget {
		t.Fatalf("8 resident K=1000 entries report %d bytes in %d entries, want (0, %d]",
			st.CacheBytes, st.Entries, 8*entryBudget)
	}
	resident := func() int {
		e.cache.mu.Lock()
		defer e.cache.mu.Unlock()
		n := 0
		for _, el := range e.cache.items {
			n += el.Value.(*lruItem).val.ss.Bytes()
		}
		return n
	}
	for i := 8; i < 12; i++ { // evicts four, at K=200
		missQuery(t, e, i, 200, 20, "abp", "exact")
	}
	if got, want := e.Stats().CacheBytes, resident(); got != want {
		t.Errorf("after evictions CacheBytes = %d, resident score sets hold %d", got, want)
	}
	// A place between the two groups of queries keeps some entries and
	// sweeps others; the bytes follow both.
	if _, err := e.Mutate(context.Background(), Mutation{Upserts: []dataset.Upsert{{ID: "bytes:mid", X: 27, Y: 12}}}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if got, want := st.CacheBytes, resident(); got != want || st.Entries != int(st.KeptEntries) {
		t.Errorf("after a scoped sweep CacheBytes = %d, resident score sets hold %d; %d entries, %d kept",
			got, want, st.Entries, st.KeptEntries)
	}
	if st.KeptEntries == 0 || st.SweptEntries == 0 {
		t.Errorf("the scoped sweep kept %d and swept %d entries; want some of each", st.KeptEntries, st.SweptEntries)
	}
	// A place at every query point sweeps them all.
	var near []dataset.Upsert
	for i := 4; i < 12; i++ {
		near = append(near, dataset.Upsert{ID: fmt.Sprintf("bytes:%d", i), X: 20 + float64(i), Y: 20})
	}
	if _, err := e.Mutate(context.Background(), Mutation{Upserts: near}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Entries != 0 || st.CacheBytes != 0 {
		t.Errorf("after the sweep %d entries report %d bytes", st.Entries, st.CacheBytes)
	}
}

// TestCompactEntryAnswersMatchFreshEngine: a resident entry answers as a
// fresh one. An answer for a new (algo, k, λ) served from a resident
// entry — its pairs read through an instance rebuilt from its places — is
// byte-equal to the answer a fresh engine computes on a miss, for every
// spatial method.
func TestCompactEntryAnswersMatchFreshEngine(t *testing.T) {
	d := testData(t)
	warm := New(d, Options{})
	body := func(e *Engine, spatial, algo string, k int, lambda float64) ([]byte, string) {
		t.Helper()
		req := e.NewRequest()
		req.K, req.SmallK, req.Lambda, req.Algo, req.Spatial = 120, k, lambda, algo, spatial
		res, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		status := res.Cache
		res.Cache = "" // the one field that tells a hit from a miss
		b, err := e.AppendResponse(nil, req, res, nil, "rid", nil)
		if err != nil {
			t.Fatal(err)
		}
		return b, status
	}
	for _, spatial := range []string{"squared", "exact", "radial"} {
		body(warm, spatial, "abp", 10, 0.5) // the miss that caches the entry
		for _, algo := range []string{"abp", "iadu", "abp-div", "iadu-div"} {
			for _, k := range []int{3, 8} {
				for _, lambda := range []float64{0.25, 1} {
					got, status := body(warm, spatial, algo, k, lambda)
					if status != CacheHit {
						t.Fatalf("%s: cache %q, want a hit on the resident entry", spatial, status)
					}
					want, _ := body(New(d, Options{}), spatial, algo, k, lambda)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s %s k=%d λ=%v:\nresident entry %s\nfresh engine   %s", spatial, algo, k, lambda, got, want)
					}
				}
			}
		}
	}
	if st := warm.Stats(); st.Builds != 3 {
		t.Errorf("%d score-set builds, want 3: a memo miss must select on the resident set, not rebuild it", st.Builds)
	}
}

// TestCompactEntryConcurrentSelKeys: 8 goroutines ask one resident entry
// for distinct (algo, k, λ) at once — 8 concurrent selections on one
// shared set, each through its own instance — and each gets the answer a
// sequential engine gives.
func TestCompactEntryConcurrentSelKeys(t *testing.T) {
	d := testData(t)
	e := New(d, Options{})
	query := func(e *Engine, i int) *Result {
		req := e.NewRequest()
		req.K, req.SmallK = 90, 2+i
		req.Lambda = float64(i) / 8
		req.Algo = []string{"abp", "iadu"}[i%2]
		res, err := e.Query(context.Background(), req)
		if err != nil {
			t.Error(err)
			return nil
		}
		return res
	}
	query(e, 8) // caches the entry, under a ninth selKey
	var wg sync.WaitGroup
	got := make([]*Result, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = query(e, i)
		}()
	}
	wg.Wait()
	ref := New(d, Options{})
	for i, res := range got {
		want := query(ref, i)
		if res == nil || want == nil {
			t.FailNow()
		}
		if fmt.Sprint(res.Sel.Indices) != fmt.Sprint(want.Sel.Indices) || res.Breakdown != want.Breakdown {
			t.Errorf("selKey %d: concurrent %v %+v, sequential %v %+v",
				i, res.Sel.Indices, res.Breakdown, want.Sel.Indices, want.Breakdown)
		}
	}
	if st := e.Stats(); st.Builds != 1 || st.Hits != 8 {
		t.Errorf("builds/hits = %d/%d, want 1/8", st.Builds, st.Hits)
	}
}

// missBytes is the allocation ratchet of the miss path: bytes allocated
// per fresh-key miss (retrieval, Step 1, Step 2, rendering) on the
// benchmark's 20k corpus, retrieved from its own IR-tree, k=20,
// λ=γ=0.5. The last row is a memo miss on a resident K=1000 entry: Step
// 2 on the cached set, reading its pairs through an instance rebuilt
// from its places. Measured 2026-10-22 with one tree per corpus; the
// rows were 238 652, 233 662, 465 188, 481 384, 826 844, 810 104,
// 782 184 and 777 368 when retrieval merged two shards. Score sets hold
// no pair scores: Step 1 stores no sF triangle and Step 2 recomputes the
// pairs it reads (4.5–4.9 MB at K=1000 when Step 1 filled one
// K(K−1)/2 sF triangle, 12.5–13.5 MB when the matrix engines filled
// three). Every row's budget is its measurement + 10 %. Lower a row when
// a change shrinks it.
var missBytes = []struct {
	K             int
	algo, spatial string
	memo          bool
	measured      uint64
}{
	{200, "iadu", "exact", false, 209_456},
	{200, "iadu", "squared", false, 216_782},
	{200, "abp", "exact", false, 448_280},
	{200, "abp", "squared", false, 464_408},
	{1000, "iadu", "exact", false, 785_612},
	{1000, "iadu", "squared", false, 768_944},
	{1000, "abp", "exact", false, 740_992},
	{1000, "abp", "squared", false, 711_608},
	{1000, "iadu", "squared", true, 347_132},
}

// TestMissBytesBudget holds every missBytes row to its budget, averaged
// over four requests after one unmeasured warm-up.
func TestMissBytesBudget(t *testing.T) {
	e := New(missCorpus(t), Options{})
	e.SquaredTable()
	var ms runtime.MemStats
	loc := 0
	for _, row := range missBytes {
		const n = 4
		var before uint64
		for i := 0; i <= n; i++ {
			if i == 1 {
				runtime.ReadMemStats(&ms)
				before = ms.TotalAlloc
			}
			if row.memo {
				missQuery(t, e, loc, row.K, 20-i, row.algo, row.spatial) // i = 0 caches the entry
			} else {
				missQuery(t, e, loc, row.K, 20, row.algo, row.spatial)
				loc++
			}
		}
		runtime.ReadMemStats(&ms)
		got := (ms.TotalAlloc - before) / n
		label := fmt.Sprintf("K=%d %s %s", row.K, row.algo, row.spatial)
		if row.memo {
			label += " memo miss"
		}
		t.Logf("%s: %d bytes per request (measured %d)", label, got, row.measured)
		if budget := row.measured * 11 / 10; got > budget {
			t.Errorf("%s: %d bytes per request, budget %d", label, got, budget)
		}
	}
}
