// Package textctx models the contextual side of spatial keyword search:
// contextual sets (keywords, tags, or RDF entity identifiers) attached to
// places, and the all-pairs Jaccard-similarity engines of Section 6 of the
// paper — the baseline hash-join, the micro set Jaccard hashing (msJh)
// algorithm (Algorithm 1), and a MinHash comparator used as the eminent
// technique the paper compares against.
//
// Contextual items of any origin (words, tags, dataset nodes, RDF graph
// nodes) are interned into dense int32 identifiers by a Dict, so the
// similarity engines are agnostic to the item type, exactly as the paper's
// use of Jaccard similarity is.
package textctx

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// ItemID is the dense identifier of an interned contextual item.
type ItemID int32

// Dict interns contextual item strings to dense ItemIDs. The zero value is
// ready to use. Dict is not safe for concurrent mutation.
type Dict struct {
	ids   map[string]ItemID
	words []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]ItemID)}
}

// Intern returns the identifier of w, assigning a fresh one if needed.
func (d *Dict) Intern(w string) ItemID {
	if d.ids == nil {
		d.ids = make(map[string]ItemID)
	}
	if id, ok := d.ids[w]; ok {
		return id
	}
	id := ItemID(len(d.words))
	d.ids[w] = id
	d.words = append(d.words, w)
	return id
}

// Clone returns an independent copy of the dictionary: interning into the
// clone never mutates the original, while every identifier the original
// assigned keeps its meaning in the clone (interning is append-only, so a
// clone is a superset-in-waiting of its source). Corpus snapshots lean on
// this to share a dictionary across epochs until a mutation batch actually
// introduces new words.
func (d *Dict) Clone() *Dict {
	c := &Dict{
		ids:   make(map[string]ItemID, len(d.ids)),
		words: append([]string(nil), d.words...),
	}
	for w, id := range d.ids {
		c.ids[w] = id
	}
	return c
}

// Lookup returns the identifier of w and whether it is interned.
func (d *Dict) Lookup(w string) (ItemID, bool) {
	id, ok := d.ids[w]
	return id, ok
}

// Word returns the string for id. It panics on an unknown identifier.
func (d *Dict) Word(id ItemID) string {
	if int(id) < 0 || int(id) >= len(d.words) {
		panic(fmt.Sprintf("textctx: unknown ItemID %d", id))
	}
	return d.words[id]
}

// Len returns the number of interned items.
func (d *Dict) Len() int { return len(d.words) }

// Set is a contextual set: a sorted slice of unique item identifiers.
// The zero value is the empty set.
type Set struct {
	items []ItemID
}

// NewSet builds a Set from ids, sorting and deduplicating them.
func NewSet(ids ...ItemID) Set {
	if len(ids) == 0 {
		return Set{}
	}
	s := make([]ItemID, len(ids))
	copy(s, ids)
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return Set{items: out}
}

// NewSetFromStrings interns each word in d and builds the resulting Set.
func NewSetFromStrings(d *Dict, words []string) Set {
	ids := make([]ItemID, len(words))
	for i, w := range words {
		ids[i] = d.Intern(w)
	}
	return NewSet(ids...)
}

// Len returns |s|, the number of elements in the contextual set.
func (s Set) Len() int { return len(s.items) }

// Items returns the sorted identifiers. The returned slice must not be
// modified.
func (s Set) Items() []ItemID { return s.items }

// Contains reports whether id is in s.
func (s Set) Contains(id ItemID) bool {
	i := sort.Search(len(s.items), func(i int) bool { return s.items[i] >= id })
	return i < len(s.items) && s.items[i] == id
}

// Fingerprint returns a compact canonical encoding of the set's item
// identifiers ("3,17,42"). Two sets have equal fingerprints iff they are
// Equal, which makes the fingerprint usable as (part of) a cache key for
// query results keyed on an interned keyword set.
func (s Set) Fingerprint() string {
	if len(s.items) == 0 {
		return ""
	}
	return string(s.AppendFingerprint(nil))
}

// AppendFingerprint appends Fingerprint's encoding to dst.
func (s Set) AppendFingerprint(dst []byte) []byte {
	for i, id := range s.items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return dst
}

// Words resolves the set back to strings using d.
func (s Set) Words(d *Dict) []string {
	out := make([]string, len(s.items))
	for i, id := range s.items {
		out[i] = d.Word(id)
	}
	return out
}

// IntersectionSize returns |s ∩ o| by merging the two sorted slices.
func (s Set) IntersectionSize(o Set) int {
	i, j, n := 0, 0, 0
	for i < len(s.items) && j < len(o.items) {
		switch {
		case s.items[i] < o.items[j]:
			i++
		case s.items[i] > o.items[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnionSize returns |s ∪ o|.
func (s Set) UnionSize(o Set) int {
	return len(s.items) + len(o.items) - s.IntersectionSize(o)
}

// Jaccard returns |s ∩ o| / |s ∪ o|. Disjoint sets — two empty sets
// included — have similarity +0, the conventional choice that keeps empty
// contexts from attracting each other in the proportionality scores and
// the value the all-pairs engines leave in a pair they never compare. A
// non-zero value comes from jaccard, the expression those engines store,
// so every entry of their matrices equals Jaccard of its two sets bit for
// bit.
func (s Set) Jaccard(o Set) float64 {
	inter := s.IntersectionSize(o)
	if inter == 0 {
		return 0
	}
	return jaccard(inter, len(s.items), len(o.items))
}

// jaccard is the similarity of two sets of sizes li and lj that share
// inter ≥ 1 items.
func jaccard(inter, li, lj int) float64 {
	return float64(inter) / float64(li+lj-inter)
}

// Equal reports whether s and o contain exactly the same items.
func (s Set) Equal(o Set) bool {
	if len(s.items) != len(o.items) {
		return false
	}
	for i := range s.items {
		if s.items[i] != o.items[i] {
			return false
		}
	}
	return true
}
