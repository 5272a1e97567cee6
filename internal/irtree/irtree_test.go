package irtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/textctx"
)

func randomObjects(rng *rand.Rand, n, vocab, ctxSize int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		sz := 1 + rng.Intn(ctxSize)
		ids := make([]textctx.ItemID, sz)
		for j := range ids {
			ids[j] = textctx.ItemID(rng.Intn(vocab))
		}
		objs[i] = Object{
			ID:    int32(i),
			Loc:   geo.Pt(rng.Float64()*100, rng.Float64()*100),
			Terms: textctx.NewSet(ids...),
		}
	}
	return objs
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Error("empty tree Len != 0")
	}
	if _, ok := tr.Bounds(); ok {
		t.Error("empty tree has bounds")
	}
	if got := tr.TopK(geo.Pt(0, 0), textctx.NewSet(1), QueryOptions{K: 5}); got != nil {
		t.Error("TopK on empty tree returned results")
	}
	if got := tr.NearestK(geo.Pt(0, 0), 3); got != nil {
		t.Error("NearestK on empty tree returned results")
	}
	if got := tr.RangeSearch(geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1))); got != nil {
		t.Error("RangeSearch on empty tree returned results")
	}
}

func TestBulkLoadInvalid(t *testing.T) {
	for _, loc := range []geo.Point{geo.Pt(math.NaN(), 0), geo.Pt(0, math.Inf(1))} {
		if _, err := BulkLoad([]Object{{Loc: loc}}); err == nil {
			t.Errorf("BulkLoad accepted location %v", loc)
		}
	}
}

// TestInsertInvariants grows a corpus object by object and rebuilds the
// tree at intervals, checking the structural invariants at each size.
func TestInsertInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := randomObjects(rng, 500, 50, 6)
	var tr *Tree
	for i := range objs {
		if i%97 != 0 && i != len(objs)-1 {
			continue
		}
		var err error
		if tr, err = BulkLoad(objs[:i+1]); err != nil {
			t.Fatal(err)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after %d objects: %v", i+1, err)
		}
	}
	if tr.Len() != len(objs) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(objs))
	}
	if tr.Height() < 2 {
		t.Errorf("500 objects should produce height ≥ 2, got %d", tr.Height())
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 15, 16, 17, 100, 257, 1000} {
		objs := randomObjects(rng, n, 40, 5)
		tr, err := BulkLoad(objs)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 0 {
			all := tr.RangeSearch(tr.root.rect)
			if len(all) != n {
				t.Fatalf("n=%d: RangeSearch(bounds) = %d", n, len(all))
			}
		}
	}
	// Varying context sizes give nodes different minLen values.
	tr, err := BulkLoad(banded(rand.New(rand.NewSource(4)), 600))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.root.minLen != 0 {
		t.Errorf("root minLen = %d, want 0 (the corpus has empty contexts)", tr.root.minLen)
	}
}

// checkInvariants walks the tree verifying the structure BulkLoad
// promises: balanced, fill within [1, maxEntries], rectangles nested,
// and every inverted file exactly the sorted union of its entries' terms
// with minLen the smallest term-set size below the node.
func (t *Tree) checkInvariants() error {
	if t.size == 0 {
		if !t.root.leaf || len(t.root.objects) != 0 {
			return fmt.Errorf("empty tree has a non-empty root")
		}
		return nil
	}
	var count int
	var walk func(n *node, depth int) (int, error)
	walk = func(n *node, depth int) (int, error) {
		var lists [][]textctx.ItemID
		minLen := math.MaxInt
		leafDepth := depth
		if n.leaf {
			if len(n.objects) < 1 || len(n.objects) > maxEntries {
				return 0, fmt.Errorf("leaf fill %d outside [1, %d]", len(n.objects), maxEntries)
			}
			for _, o := range n.objects {
				count++
				if !n.rect.Contains(o.Loc) {
					return 0, fmt.Errorf("object %d outside leaf rect", o.ID)
				}
				lists = append(lists, o.Terms.Items())
				minLen = min(minLen, o.Terms.Len())
			}
		} else {
			if len(n.children) < 1 || len(n.children) > maxEntries {
				return 0, fmt.Errorf("node fill %d outside [1, %d]", len(n.children), maxEntries)
			}
			leafDepth = -1
			for _, c := range n.children {
				if !n.rect.ContainsRect(c.rect) {
					return 0, fmt.Errorf("child rect escapes parent")
				}
				d, err := walk(c, depth+1)
				if err != nil {
					return 0, err
				}
				if leafDepth != -1 && leafDepth != d {
					return 0, fmt.Errorf("unbalanced tree: leaf depths %d and %d", leafDepth, d)
				}
				leafDepth = d
				lists = append(lists, c.terms)
				minLen = min(minLen, c.minLen)
			}
		}
		want := map[textctx.ItemID]bool{}
		for _, l := range lists {
			for _, term := range l {
				want[term] = true
			}
		}
		if len(n.terms) != len(want) {
			return 0, fmt.Errorf("inverted file has %d terms, entries have %d", len(n.terms), len(want))
		}
		for i, term := range n.terms {
			if !want[term] || (i > 0 && n.terms[i-1] >= term) {
				return 0, fmt.Errorf("inverted file not the sorted union of its entries at %d", i)
			}
		}
		if n.minLen != minLen {
			return 0, fmt.Errorf("minLen = %d, want %d", n.minLen, minLen)
		}
		return leafDepth, nil
	}
	if _, err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but found %d objects", t.size, count)
	}
	return nil
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := randomObjects(rng, 400, 30, 4)
	tr, err := BulkLoad(objs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		a := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		b := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		r := geo.NewRect(a, b)
		got := tr.RangeSearch(r)
		var want []int32
		for _, o := range objs {
			if r.Contains(o.Loc) {
				want = append(want, o.ID)
			}
		}
		gotIDs := make([]int32, len(got))
		for i, o := range got {
			gotIDs[i] = o.ID
		}
		sortInt32s(gotIDs)
		sortInt32s(want)
		if !equalInt32s(gotIDs, want) {
			t.Fatalf("trial %d: range mismatch: got %d, want %d objects", trial, len(gotIDs), len(want))
		}
	}
}

func TestNearestKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := randomObjects(rng, 300, 30, 4)
	tr, err := BulkLoad(objs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		k := 1 + rng.Intn(20)
		got := tr.NearestK(q, k)
		if len(got) != k {
			t.Fatalf("NearestK returned %d, want %d", len(got), k)
		}
		// Distances must be sorted and match the brute-force k-th.
		dists := make([]float64, len(objs))
		for i, o := range objs {
			dists[i] = o.Loc.Dist(q)
		}
		sort.Float64s(dists)
		for i, r := range got {
			if r.Dist != dists[i] {
				t.Fatalf("trial %d: dist[%d] = %g, want %g", trial, i, r.Dist, dists[i])
			}
		}
	}
}

// banded generates n objects whose context sizes depend on where they
// lie — empty in one corner, one to two terms in the west, eight to
// twelve in the east — so minLen differs from node to node and the
// min-set-size bound is exercised at every level.
func banded(rng *rand.Rand, n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		loc := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		sz := 1 + rng.Intn(2)
		switch {
		case loc.X < 20 && loc.Y < 20:
			sz = 0
		case loc.X >= 50:
			sz = 8 + rng.Intn(5)
		}
		ids := make([]textctx.ItemID, sz)
		for j := range ids {
			ids[j] = textctx.ItemID(rng.Intn(30))
		}
		objs[i] = Object{ID: int32(i), Loc: loc, Terms: textctx.NewSet(ids...)}
	}
	return objs
}

// linearTopK is the oracle: every object scored with the ranking
// formula, sorted into the canonical (score desc, ID asc) order, first
// k kept.
func linearTopK(objs []Object, q geo.Point, kw textctx.Set, beta, maxDist float64, k int) []Result {
	all := make([]Result, len(objs))
	for i, o := range objs {
		d := o.Loc.Dist(q)
		ts := kw.Jaccard(o.Terms)
		prox := 1 - d/maxDist
		if prox < 0 {
			prox = 0
		}
		all[i] = Result{Obj: o, Score: beta*ts + (1-beta)*prox, Dist: d, TextSim: ts}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Obj.ID < all[j].Obj.ID
	})
	return all[:min(k, len(all))]
}

// sameResults requires bitwise equality of IDs, scores, distances and
// text similarities, position by position.
func sameResults(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Obj.ID != w.Obj.ID ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Dist) != math.Float64bits(w.Dist) ||
			math.Float64bits(g.TextSim) != math.Float64bits(w.TextSim) {
			return fmt.Errorf("rank %d: got (id %d, score %v), want (id %d, score %v)",
				i, g.Obj.ID, g.Score, w.Obj.ID, w.Score)
		}
	}
	return nil
}

// oracleCorpora are the corpora the top-k oracle runs over: uniform
// random contexts, location-dependent context sizes, and heavy spatial
// duplication (few distinct points, so distances and scores tie).
func oracleCorpora() map[string][]Object {
	rng := rand.New(rand.NewSource(11))
	colocated := randomObjects(rng, 300, 8, 3)
	for i := range colocated {
		colocated[i].Loc = geo.Pt(float64(10*(i%4)), float64(10*(i%3)))
	}
	return map[string][]Object{
		"uniform":   randomObjects(rng, 400, 25, 5),
		"banded":    banded(rng, 700),
		"colocated": colocated,
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, objs := range oracleCorpora() {
		tr, err := BulkLoad(objs)
		if err != nil {
			t.Fatal(err)
		}
		diag := tr.root.rect.Min.Dist(tr.root.rect.Max)
		n := len(objs)
		for trial := 0; trial < 24; trial++ {
			q := geo.Pt(rng.Float64()*100, rng.Float64()*100)
			var kw textctx.Set
			switch trial % 4 {
			case 0: // empty keywords
			case 1: // keywords absent from every object
				kw = textctx.NewSet(1000, 1001)
			default:
				kw = textctx.NewSet(
					textctx.ItemID(rng.Intn(30)), textctx.ItemID(rng.Intn(30)), textctx.ItemID(rng.Intn(30)))
			}
			beta := []float64{0.5, 0.2, 0.9}[trial%3]
			for _, k := range []int{1, 1 + rng.Intn(30), n, n + 7} {
				got := tr.TopK(q, kw, QueryOptions{K: k, Beta: beta, MaxDist: diag})
				want := linearTopK(objs, q, kw, beta, diag, k)
				if err := sameResults(got, want); err != nil {
					t.Fatalf("%s trial %d k=%d: %v", name, trial, k, err)
				}
			}
		}
	}
}

// Every node's bound must be at least the exact score of every object
// below it, or best-first search would emit out of order.
func TestNodeBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for name, objs := range oracleCorpora() {
		tr, err := BulkLoad(objs)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			q := geo.Pt(rng.Float64()*120-10, rng.Float64()*120-10)
			var ids []textctx.ItemID
			for j := rng.Intn(5); j > 0; j-- {
				ids = append(ids, textctx.ItemID(rng.Intn(30)))
			}
			kw := textctx.NewSet(ids...)
			s := tr.Search(q, kw, QueryOptions{Beta: rng.Float64(), MaxDist: 60})
			var walk func(n *node) []Object
			walk = func(n *node) []Object {
				below := n.objects
				for _, c := range n.children {
					below = append(append([]Object(nil), below...), walk(c)...)
				}
				b := s.nodeBound(n)
				for _, o := range below {
					if sc := Combine(s.beta, s.maxDist, kw.Jaccard(o.Terms), o.Loc.Dist(q)); sc > b {
						t.Fatalf("%s trial %d: object %d scores %v above its node's bound %v",
							name, trial, o.ID, sc, b)
					}
				}
				return below
			}
			walk(tr.root)
		}
	}
}

// A Searcher emits at most opt.K results — exactly min(K, n) — and an
// unbounded one (K = 0) emits every object once.
func TestSearcherHonoursK(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	objs := banded(rng, 500)
	tr, err := BulkLoad(objs)
	if err != nil {
		t.Fatal(err)
	}
	kw := textctx.NewSet(1, 2, 3)
	for _, k := range []int{0, 1, 7, 200, 500, 900} {
		s := tr.Search(geo.Pt(40, 60), kw, QueryOptions{K: k})
		emitted := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			emitted++
		}
		want := min(k, len(objs))
		if k == 0 {
			want = len(objs)
		}
		if emitted != want {
			t.Fatalf("K=%d: emitted %d, want %d", k, emitted, want)
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("K=%d: Next after exhaustion returned a result", k)
		}
	}
}

func TestTopKTextOnlySignal(t *testing.T) {
	// Two objects equidistant from q; the one matching the keyword must
	// rank first.
	d := textctx.NewDict()
	tr, err := BulkLoad([]Object{
		{ID: 1, Loc: geo.Pt(1, 0), Terms: textctx.NewSetFromStrings(d, []string{"museum"})},
		{ID: 2, Loc: geo.Pt(-1, 0), Terms: textctx.NewSetFromStrings(d, []string{"park"})},
	})
	if err != nil {
		t.Fatal(err)
	}
	kw := textctx.NewSetFromStrings(d, []string{"museum"})
	got := tr.TopK(geo.Pt(0, 0), kw, QueryOptions{K: 2})
	if len(got) != 2 || got[0].Obj.ID != 1 {
		t.Fatalf("TopK = %+v, want museum first", got)
	}
	if got[0].TextSim != 1 || got[1].TextSim != 0 {
		t.Errorf("TextSim = %g, %g", got[0].TextSim, got[1].TextSim)
	}
}

func TestTopKEmptyKeywords(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	objs := randomObjects(rng, 100, 20, 4)
	tr, err := BulkLoad(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := geo.Pt(50, 50)
	got := tr.TopK(q, textctx.Set{}, QueryOptions{K: 5})
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	// With no keywords the ranking reduces to spatial proximity.
	nn := tr.NearestK(q, 5)
	for i := range got {
		if math.Abs(got[i].Dist-nn[i].Dist) > 1e-9 {
			t.Errorf("rank %d: TopK dist %g vs NearestK %g", i, got[i].Dist, nn[i].Dist)
		}
	}
}

func TestAllObjectsAtSamePoint(t *testing.T) {
	objs := make([]Object, 40)
	for i := range objs {
		objs[i] = Object{ID: int32(i), Loc: geo.Pt(5, 5), Terms: textctx.NewSet(textctx.ItemID(i))}
	}
	tr, err := BulkLoad(objs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.TopK(geo.Pt(5, 5), textctx.NewSet(3), QueryOptions{K: 1})
	if len(got) != 1 || got[0].Obj.ID != 3 {
		t.Errorf("TopK = %+v, want object 3", got)
	}
}

func TestHeightGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	if h := New().Height(); h != 1 {
		t.Errorf("empty height = %d", h)
	}
	tr, err := BulkLoad(randomObjects(rng, 2000, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h < 3 {
		t.Errorf("height = %d for 2000 objects, want ≥ 3", h)
	}
}

func sortInt32s(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func equalInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	objs := randomObjects(rng, 10000, 1000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoad(objs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopK10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	objs := randomObjects(rng, 10000, 1000, 8)
	tr, err := BulkLoad(objs)
	if err != nil {
		b.Fatal(err)
	}
	kw := textctx.NewSet(1, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TopK(geo.Pt(50, 50), kw, QueryOptions{K: 100})
	}
}
