// Package irtree implements an IR-tree (Cong, Jensen & Wu, PVLDB 2009): an
// R-tree whose every node carries an inverted file summarising the
// contextual terms of its subtree. It is the retrieval substrate of the
// reproduction — the component that, given a query location and keywords,
// produces the ranked set S of relevant places that the proportionality
// framework then selects from.
//
// Trees are built once by Sort-Tile-Recursive bulk loading and are
// read-only afterwards. The tree supports top-k spatial-keyword search
// with best-first traversal and tight upper bounds, pure-spatial
// k-nearest-neighbour search, and rectangular range search.
package irtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/textctx"
)

// Object is an indexed spatial object with a contextual term set.
type Object struct {
	ID    int32
	Loc   geo.Point
	Terms textctx.Set
}

// maxEntries is the node fan-out.
const maxEntries = 16

type node struct {
	leaf     bool
	rect     geo.Rect
	children []*node  // internal nodes
	objects  []Object // leaf nodes
	// terms is the node's inverted file: the sorted distinct terms
	// appearing anywhere in the subtree. Together with minLen, the
	// smallest term-set size in the subtree, it yields the admissible
	// textual upper bound used by best-first search.
	terms  []textctx.ItemID
	minLen int
}

// Tree is an IR-tree. The zero value is not usable; call New or BulkLoad.
// A Tree is immutable once built and safe for concurrent reads.
type Tree struct {
	root *node
	size int
}

// New returns an empty IR-tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// Bounds returns the minimum bounding rectangle of all indexed objects and
// whether the tree is non-empty.
func (t *Tree) Bounds() (geo.Rect, bool) {
	if t.size == 0 {
		return geo.Rect{}, false
	}
	return t.root.rect, true
}

// summarise computes a non-empty node's rect, inverted file and minLen
// from its entries, merging the entries' sorted term lists.
func (n *node) summarise() {
	var lists [][]textctx.ItemID
	if n.leaf {
		n.rect = geo.RectOf(n.objects[0].Loc)
		n.minLen = n.objects[0].Terms.Len()
		for _, o := range n.objects {
			n.rect = n.rect.Extend(o.Loc)
			n.minLen = min(n.minLen, o.Terms.Len())
			lists = append(lists, o.Terms.Items())
		}
	} else {
		n.rect = n.children[0].rect
		n.minLen = n.children[0].minLen
		for _, c := range n.children {
			n.rect = n.rect.Union(c.rect)
			n.minLen = min(n.minLen, c.minLen)
			lists = append(lists, c.terms)
		}
	}
	n.terms = unionAll(lists)
}

// unionAll returns the sorted union of sorted, duplicate-free lists,
// folding them pairwise through two reused buffers.
func unionAll(lists [][]textctx.ItemID) []textctx.ItemID {
	var acc, buf []textctx.ItemID
	for _, l := range lists {
		buf = buf[:0]
		i, j := 0, 0
		for i < len(acc) && j < len(l) {
			switch {
			case acc[i] < l[j]:
				buf = append(buf, acc[i])
				i++
			case acc[i] > l[j]:
				buf = append(buf, l[j])
				j++
			default:
				buf = append(buf, acc[i])
				i++
				j++
			}
		}
		buf = append(append(buf, acc[i:]...), l[j:]...)
		acc, buf = buf, acc
	}
	return append([]textctx.ItemID(nil), acc...)
}

// Height returns the tree height (1 for a root-only tree).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// BulkLoad builds an IR-tree over objs using Sort-Tile-Recursive packing,
// which produces a well-filled balanced tree. The input slice is not
// modified.
func BulkLoad(objs []Object) (*Tree, error) {
	t := New()
	for _, o := range objs {
		if !o.Loc.Valid() {
			return nil, &InvalidObjectError{ID: o.ID, Loc: o.Loc}
		}
	}
	if len(objs) == 0 {
		return t, nil
	}
	t.size = len(objs)

	// Pack leaves with STR.
	sorted := append([]Object(nil), objs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Loc.X < sorted[j].Loc.X })
	nLeaves := (len(sorted) + maxEntries - 1) / maxEntries
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSz := nSlices * maxEntries

	var leaves []*node
	for s := 0; s < len(sorted); s += sliceSz {
		end := min(s+sliceSz, len(sorted))
		strip := sorted[s:end]
		sort.Slice(strip, func(i, j int) bool { return strip[i].Loc.Y < strip[j].Loc.Y })
		for o := 0; o < len(strip); o += maxEntries {
			oe := min(o+maxEntries, len(strip))
			leaf := &node{leaf: true, objects: append([]Object(nil), strip[o:oe]...)}
			leaf.summarise()
			leaves = append(leaves, leaf)
		}
	}

	// Build internal levels by packing children in groups.
	level := leaves
	for len(level) > 1 {
		var next []*node
		for s := 0; s < len(level); s += maxEntries {
			e := min(s+maxEntries, len(level))
			n := &node{children: append([]*node(nil), level[s:e]...)}
			n.summarise()
			next = append(next, n)
		}
		level = next
	}
	t.root = level[0]
	return t, nil
}

// InvalidObjectError reports an object with a non-finite location.
type InvalidObjectError struct {
	ID  int32
	Loc geo.Point
}

// Error implements error.
func (e *InvalidObjectError) Error() string {
	return fmt.Sprintf("irtree: invalid location %v for object %d", e.Loc, e.ID)
}
