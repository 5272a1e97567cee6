package irtree

import (
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/textctx"
)

// QueryOptions configures a top-k spatial-keyword query.
type QueryOptions struct {
	// K is the number of results to return; a Searcher emits at most K
	// (K ≤ 0 leaves its stream unbounded).
	K int
	// Beta weighs textual relevance against spatial proximity in
	//   score = β·Jaccard(keywords, terms) + (1−β)·max(0, 1 − dist/MaxDist).
	// The default 0.5 weighs them equally.
	Beta float64
	// MaxDist normalises distances; 0 means the diagonal of the tree's
	// bounding rectangle (the paper normalises by the city's largest
	// distance).
	MaxDist float64
}

// Result is one ranked retrieval result.
type Result struct {
	Obj Object
	// Score is the combined relevance rF ∈ [0, 1].
	Score float64
	// Dist is the Euclidean distance to the query location.
	Dist float64
	// TextSim is the Jaccard similarity of the query keywords to the
	// object's terms.
	TextSim float64
}

// entry is one frontier element: a node with an upper bound on its
// subtree's scores, or an object with its exact score.
type entry struct {
	n     *node   // nil for object entries
	o     *Object // valid when n == nil
	bound float64
	// object entries carry their final Dist/TextSim
	dist, tsim float64
}

// before orders the frontier by descending bound, with a deterministic
// tie-break: node entries expand before object entries of equal bound
// (so every candidate with that score enters the frontier before any is
// emitted), and equal-score objects emit in ascending ID. This makes
// the emitted result sequence a canonical (score desc, ID asc) order —
// independent of heap internals and of how the object set is split
// across trees — which the sharded fan-out relies on to merge per-shard
// top-k lists into the exact unsharded result.
func before(a, b *entry) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if (a.n != nil) != (b.n != nil) {
		return a.n != nil
	}
	return a.n == nil && a.o.ID < b.o.ID
}

// frontier is a binary max-heap under before. Hand-rolled rather than
// container/heap so pushes and pops neither box entries through an
// interface nor call through one.
type frontier []entry

func (h *frontier) push(e entry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *frontier) pop() entry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		best := 2*i + 1
		if best >= last {
			break
		}
		if r := best + 1; r < last && before(&s[r], &s[best]) {
			best = r
		}
		if !before(&s[best], &s[i]) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	*h = s
	return top
}

// TopK returns the k objects with the highest combined spatial-keyword
// relevance to the query location and keywords, best first. It performs a
// best-first traversal, pruning subtrees by an admissible upper bound
// combining the node's MINDIST and its inverted file.
func (t *Tree) TopK(q geo.Point, keywords textctx.Set, opt QueryOptions) []Result {
	if opt.K <= 0 || t.size == 0 {
		return nil
	}
	s := t.Search(q, keywords, opt)
	out := make([]Result, 0, min(opt.K, t.size))
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Searcher is an incremental top-k traversal: Next emits exactly the
// sequence TopK would return — the canonical (score desc, ID asc) order,
// at most QueryOptions.K results — one result at a time, retaining the
// best-first frontier between calls. The sharded fan-out uses it to pull
// only as many per-shard candidates as the global merge actually
// consumes, instead of a full top-K from every shard.
//
// With K > 0 the searcher also keeps the K best exact scores it has
// computed and never pushes an object or node whose score or bound is
// strictly below the K-th of them: at least K objects outrank it, so it
// cannot be among the first K emitted. Ties are kept, so the cutoff
// never changes which objects are emitted or in what order.
type Searcher struct {
	h        frontier
	q        geo.Point
	keywords textctx.Set
	beta     float64
	maxDist  float64
	k        int
	emitted  int
	// best is a min-heap of the k best exact scores computed so far.
	best []float64

	// Expanded and Scored count the nodes opened and the objects
	// scored so far — the work the traversal has done.
	Expanded, Scored int
}

// Search starts an incremental traversal emitting at most opt.K results.
func (t *Tree) Search(q geo.Point, keywords textctx.Set, opt QueryOptions) *Searcher {
	s := &Searcher{q: q, keywords: keywords, beta: opt.Beta, k: opt.K}
	if s.beta == 0 {
		s.beta = 0.5
	}
	if t.size == 0 {
		return s
	}
	s.maxDist = opt.MaxDist
	if s.maxDist <= 0 {
		s.maxDist = t.root.rect.Min.Dist(t.root.rect.Max)
		if s.maxDist == 0 {
			s.maxDist = 1 // all objects at one point; distances are all 0
		}
	}
	if s.k > 0 {
		s.best = make([]float64, 0, min(s.k, t.size))
	}
	s.h = frontier{{n: t.root, bound: s.nodeBound(t.root)}}
	return s
}

// Combine is the relevance score rF of a textual component ts (the
// Jaccard of the query keywords against an object's terms) and a spatial
// one, the distance dist from the query location, under weight beta and
// normaliser maxDist (see QueryOptions; both resolved, so positive). It
// is the one function a Searcher ranks by, so a caller that rescores an
// object from the same ts and dist gets the very bits the Searcher
// emitted. It is monotone in both components, so bounds on the
// components bound the score.
func Combine(beta, maxDist, ts, dist float64) float64 {
	prox := 1 - dist/maxDist
	if prox < 0 {
		prox = 0
	}
	// The conversions round each product on its own, so no platform
	// fuses one into the addition (see pairs.Blend).
	return float64(beta*ts) + float64((1-beta)*prox)
}

// nodeBound is an admissible upper bound on the score of every object
// below n. Textually, a descendant p with |C(p)| = c ≥ minLen sharing
// i ≤ min(inter, c) keywords has Jaccard i/(|kw| + c − i), which is at
// most inter/(|kw| + max(0, minLen − inter)). The bound survives
// floating point because correctly rounded division and Combine are
// monotone in their arguments.
func (s *Searcher) nodeBound(n *node) float64 {
	var tb float64
	if kw := s.keywords.Items(); len(kw) > 0 {
		inter, lo := 0, 0
		for _, term := range kw {
			i, found := slices.BinarySearch(n.terms[lo:], term)
			lo += i
			if found {
				inter++
				lo++
			}
		}
		tb = float64(inter) / float64(len(kw)+max(0, n.minLen-inter))
	}
	return Combine(s.beta, s.maxDist, tb, n.rect.MinDist(s.q))
}

// cutoff returns the K-th best exact score computed so far, or −∞ while
// fewer than K objects have been scored or the stream is unbounded.
func (s *Searcher) cutoff() float64 {
	if s.k <= 0 || len(s.best) < s.k {
		return math.Inf(-1)
	}
	return s.best[0]
}

// admit records an exact score in the K-best min-heap.
func (s *Searcher) admit(sc float64) {
	switch {
	case s.k <= 0:
		return
	case len(s.best) < s.k:
		s.best = append(s.best, sc)
		for i := len(s.best) - 1; i > 0; {
			p := (i - 1) / 2
			if s.best[p] <= s.best[i] {
				break
			}
			s.best[i], s.best[p] = s.best[p], s.best[i]
			i = p
		}
	case sc > s.best[0]:
		s.best[0] = sc
		for i := 0; ; {
			m := 2*i + 1
			if m >= len(s.best) {
				break
			}
			if r := m + 1; r < len(s.best) && s.best[r] < s.best[m] {
				m = r
			}
			if s.best[i] <= s.best[m] {
				break
			}
			s.best[i], s.best[m] = s.best[m], s.best[i]
			i = m
		}
	}
}

// Next returns the next result in canonical order, or ok=false when the
// tree is exhausted or K results have been emitted.
func (s *Searcher) Next() (Result, bool) {
	for len(s.h) > 0 && (s.k <= 0 || s.emitted < s.k) {
		e := s.h.pop()
		if e.n == nil {
			s.emitted++
			return Result{Obj: *e.o, Score: e.bound, Dist: e.dist, TextSim: e.tsim}, true
		}
		if e.bound < s.cutoff() {
			continue
		}
		s.Expanded++
		if e.n.leaf {
			for i := range e.n.objects {
				o := &e.n.objects[i]
				d := o.Loc.Dist(s.q)
				ts := s.keywords.Jaccard(o.Terms)
				sc := Combine(s.beta, s.maxDist, ts, d)
				s.Scored++
				s.admit(sc)
				if sc >= s.cutoff() {
					s.h.push(entry{o: o, bound: sc, dist: d, tsim: ts})
				}
			}
			continue
		}
		for _, c := range e.n.children {
			if b := s.nodeBound(c); b >= s.cutoff() {
				s.h.push(entry{n: c, bound: b})
			}
		}
	}
	return Result{}, false
}

// NearestK returns the k objects nearest to q (pure spatial kNN via
// best-first search on MINDIST), nearest first.
func (t *Tree) NearestK(q geo.Point, k int) []Result {
	if k <= 0 || t.size == 0 {
		return nil
	}
	// The frontier pops the largest bound first, so bounds are negated
	// distances.
	h := frontier{{n: t.root, bound: -t.root.rect.MinDist(q)}}
	var out []Result
	for len(h) > 0 && len(out) < k {
		e := h.pop()
		if e.n == nil {
			out = append(out, Result{Obj: *e.o, Dist: -e.bound})
			continue
		}
		if e.n.leaf {
			for i := range e.n.objects {
				o := &e.n.objects[i]
				h.push(entry{o: o, bound: -o.Loc.Dist(q)})
			}
			continue
		}
		for _, c := range e.n.children {
			h.push(entry{n: c, bound: -c.rect.MinDist(q)})
		}
	}
	return out
}

// RangeSearch returns all objects inside r, in no particular order.
func (t *Tree) RangeSearch(r geo.Rect) []Object {
	if t.size == 0 {
		return nil
	}
	var out []Object
	var walk func(n *node)
	walk = func(n *node) {
		if !n.rect.Intersects(r) {
			return
		}
		if n.leaf {
			for _, o := range n.objects {
				if r.Contains(o.Loc) {
					out = append(out, o)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}
