package textctx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern("museum")
	b := d.Intern("viking")
	if a == b {
		t.Fatal("distinct words interned to same id")
	}
	if got := d.Intern("museum"); got != a {
		t.Errorf("re-interning returned %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if w := d.Word(a); w != "museum" {
		t.Errorf("Word(%d) = %q", a, w)
	}
	if id, ok := d.Lookup("viking"); !ok || id != b {
		t.Errorf("Lookup = %d, %v", id, ok)
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Error("Lookup found absent word")
	}
}

func TestDictZeroValue(t *testing.T) {
	var d Dict
	id := d.Intern("x")
	if d.Word(id) != "x" {
		t.Error("zero-value Dict broken")
	}
}

func TestDictWordPanics(t *testing.T) {
	d := NewDict()
	defer func() {
		if recover() == nil {
			t.Error("Word(unknown) did not panic")
		}
	}()
	d.Word(42)
}

func TestNewSetDedup(t *testing.T) {
	s := NewSet(3, 1, 3, 2, 1)
	want := []ItemID{1, 2, 3}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for i, id := range s.Items() {
		if id != want[i] {
			t.Errorf("Items[%d] = %d, want %d", i, id, want[i])
		}
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(2, 4, 6)
	for _, id := range []ItemID{2, 4, 6} {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	for _, id := range []ItemID{1, 3, 5, 7} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
	}
	if (Set{}).Contains(1) {
		t.Error("empty set contains 1")
	}
}

func TestSetFromStringsAndWords(t *testing.T) {
	d := NewDict()
	s := NewSetFromStrings(d, []string{"b", "a", "b"})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	words := s.Words(d)
	// Interning order: "b" then "a", so ids sort as b < a.
	if len(words) != 2 || words[0] != "b" || words[1] != "a" {
		t.Errorf("Words = %v", words)
	}
}

func TestJaccardBasics(t *testing.T) {
	a := NewSet(1, 2, 3, 4)
	b := NewSet(1, 4)
	if got := a.IntersectionSize(b); got != 2 {
		t.Errorf("IntersectionSize = %d, want 2", got)
	}
	if got := a.UnionSize(b); got != 4 {
		t.Errorf("UnionSize = %d, want 4", got)
	}
	if got := a.Jaccard(b); got != 0.5 {
		t.Errorf("Jaccard = %g, want 0.5", got)
	}
	if got := a.Jaccard(a); got != 1 {
		t.Errorf("Jaccard(self) = %g, want 1", got)
	}
	if got := (Set{}).Jaccard(Set{}); got != 0 {
		t.Errorf("Jaccard(empty, empty) = %g, want 0", got)
	}
	if got := a.Jaccard(Set{}); got != 0 {
		t.Errorf("Jaccard(a, empty) = %g, want 0", got)
	}
}

func TestSetEqual(t *testing.T) {
	if !NewSet(1, 2).Equal(NewSet(2, 1)) {
		t.Error("equal sets reported unequal")
	}
	if NewSet(1, 2).Equal(NewSet(1, 3)) || NewSet(1).Equal(NewSet(1, 2)) {
		t.Error("unequal sets reported equal")
	}
}

// randomSet derives a deterministic pseudo-random set from raw values,
// bounded to a small universe so collisions are common.
func randomSet(raw []uint8) Set {
	ids := make([]ItemID, 0, len(raw))
	for _, r := range raw {
		ids = append(ids, ItemID(r%64))
	}
	return NewSet(ids...)
}

// Property: Jaccard is symmetric and in [0, 1].
func TestJaccardSymmetryRange(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a, b := randomSet(ra), randomSet(rb)
		j1, j2 := a.Jaccard(b), b.Jaccard(a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: 1 − Jaccard is a metric (Levandowsky & Winter 1971), which
// Section 8 relies on for the approximation bounds.
func TestJaccardDistanceTriangle(t *testing.T) {
	f := func(ra, rb, rc []uint8) bool {
		a, b, c := randomSet(ra), randomSet(rb), randomSet(rc)
		dab := 1 - a.Jaccard(b)
		dbc := 1 - b.Jaccard(c)
		dac := 1 - a.Jaccard(c)
		return dab+dbc >= dac-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPairScoresIndexing(t *testing.T) {
	ps := NewPairScores(4)
	v := 0.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			v += 1
			ps.Set(i, j, v)
		}
	}
	if got := ps.At(0, 1); got != 1 {
		t.Errorf("At(0,1) = %g", got)
	}
	if got := ps.At(2, 3); got != 6 {
		t.Errorf("At(2,3) = %g", got)
	}
	if got := ps.At(3, 2); got != 6 {
		t.Error("At is not symmetric:", got)
	}
	ps.Set(3, 0, ps.At(0, 3)+0.5)
	if got := ps.At(0, 3); got != 3.5 {
		t.Errorf("Set/At = %g, want 3.5", got)
	}
}

func TestPairScoresDiagonalPanics(t *testing.T) {
	ps := NewPairScores(3)
	defer func() {
		if recover() == nil {
			t.Error("At(i, i) did not panic")
		}
	}()
	ps.At(1, 1)
}

func TestPairScoresOutOfRangePanics(t *testing.T) {
	ps := NewPairScores(3)
	for _, pair := range [][2]int{{-1, 0}, {0, 3}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d, %d) did not panic", pair[0], pair[1])
				}
			}()
			ps.At(pair[0], pair[1])
		}()
	}
}

func TestPairScoresRowSums(t *testing.T) {
	ps := NewPairScores(3)
	ps.Set(0, 1, 0.5)
	ps.Set(0, 2, 0.25)
	ps.Set(1, 2, 1)
	sums := ps.RowSums()
	want := []float64{0.75, 1.5, 1.25}
	for i := range want {
		if math.Abs(sums[i]-want[i]) > 1e-12 {
			t.Errorf("RowSums[%d] = %g, want %g", i, sums[i], want[i])
		}
	}
}

func TestPairScoresMaxAbsDiff(t *testing.T) {
	a, b := NewPairScores(3), NewPairScores(3)
	a.Set(0, 2, 0.5)
	b.Set(0, 2, 0.8)
	b.Set(1, 2, 0.1)
	if got := a.MaxAbsDiff(b); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MaxAbsDiff = %g, want 0.3", got)
	}
}
