package pairs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIndexRoundTrip(t *testing.T) {
	m := New(5)
	v := 1.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			m.Set(i, j, v)
			if got := m.At(j, i); got != v {
				t.Fatalf("At(%d,%d) = %g, want %g", j, i, got, v)
			}
			v++
		}
	}
	// All ten entries must be distinct slots.
	seen := map[float64]bool{}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			x := m.At(i, j)
			if seen[x] {
				t.Fatalf("slot collision at (%d,%d)", i, j)
			}
			seen[x] = true
		}
	}
}

// sum returns the sum of m's pairwise scores, each unordered pair once.
func sum(m *Matrix) float64 {
	var s float64
	for i := 0; i < m.N(); i++ {
		for _, v := range m.Row(i) {
			s += v
		}
	}
	return s
}

func TestSumAndRowSums(t *testing.T) {
	m := New(4)
	m.Set(0, 1, 1)
	m.Set(1, 2, 2)
	m.Set(2, 3, 4)
	if got := sum(m); got != 7 {
		t.Errorf("sum = %g, want 7", got)
	}
	rs := m.RowSums()
	want := []float64{1, 3, 6, 4}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("RowSums[%d] = %g, want %g", i, rs[i], want[i])
		}
	}
	// Invariant: Σ RowSums = 2 · sum (every pair counted from both ends).
	var tot float64
	for _, v := range rs {
		tot += v
	}
	if tot != 2*sum(m) {
		t.Errorf("ΣRowSums = %g, want %g", tot, 2*sum(m))
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestZeroAndOneObject(t *testing.T) {
	for _, n := range []int{0, 1} {
		m := New(n)
		if m.N() != n {
			t.Errorf("N = %d, want %d", m.N(), n)
		}
		if s := m.RowSums(); len(s) != n {
			t.Errorf("RowSums len = %d, want %d", len(s), n)
		}
		if sum(m) != 0 {
			t.Error("empty matrix sum != 0")
		}
	}
}

// Property: RowSums is consistent with direct recomputation via At.
func TestRowSumsConsistent(t *testing.T) {
	f := func(vals []float64, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		m := New(n)
		k := 0
		for i := 0; i < n && k < len(vals); i++ {
			for j := i + 1; j < n && k < len(vals); j++ {
				v := vals[k]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				m.Set(i, j, v)
				k++
			}
		}
		rs := m.RowSums()
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				if j != i {
					s += m.At(i, j)
				}
			}
			if math.Abs(s-rs[i]) > 1e-9*(1+math.Abs(s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	m := New(3)
	cases := []func(){
		func() { m.At(1, 1) },
		func() { m.At(-1, 0) },
		func() { m.At(0, 3) },
		func() { m.Set(3, 0, 1) },
		func() { m.MaxAbsDiff(New(4)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMaxAbsDiffDirections(t *testing.T) {
	a, b := New(2), New(2)
	a.Set(0, 1, 5)
	b.Set(0, 1, 7)
	if a.MaxAbsDiff(b) != 2 || b.MaxAbsDiff(a) != 2 {
		t.Error("MaxAbsDiff not symmetric")
	}
}
