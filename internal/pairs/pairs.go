// Package pairs provides a compact symmetric pairwise-score matrix used as
// the Step-1 cache of the proportionality framework: the combined
// similarity sF of all pairs of retrieved places is computed once and then
// reused as many times as necessary by the greedy selection algorithms of
// Step 2. The all-pairs engines of the figure harness fill sC and sS
// matrices of the same form.
package pairs

import "fmt"

// Matrix stores a symmetric pairwise score matrix over n objects with an
// implicit zero diagonal, packed as the strict upper triangle in row-major
// order.
type Matrix struct {
	n   int
	val []float64
}

// New returns an all-zero n×n symmetric score matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic("pairs: negative Matrix size")
	}
	return &Matrix{n: n, val: make([]float64, n*(n-1)/2)}
}

// N returns the number of objects.
func (m *Matrix) N() int { return m.n }

func (m *Matrix) idx(i, j int) int {
	if i == j || i < 0 || j < 0 || i >= m.n || j >= m.n {
		panic(fmt.Sprintf("pairs: index (%d, %d) out of range for n=%d", i, j, m.n))
	}
	if i > j {
		i, j = j, i
	}
	return i*m.n - i*(i+1)/2 + (j - i - 1)
}

// At returns the score of the pair (i, j), i ≠ j.
func (m *Matrix) At(i, j int) float64 { return m.val[m.idx(i, j)] }

// Row returns the mutable slice of scores of the pairs (i, i+1) … (i, n−1):
// entry t of the returned slice is the score of (i, i+1+t). Bulk fills use
// it to write a whole row without per-entry index arithmetic; the slice
// aliases the matrix. Row(n−1) is empty.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("pairs: row %d out of range for n=%d", i, m.n))
	}
	base := i*m.n - i*(i+1)/2
	return m.val[base : base+m.n-i-1]
}

// Set stores the score of the pair (i, j), i ≠ j.
func (m *Matrix) Set(i, j int, v float64) { m.val[m.idx(i, j)] = v }

// RowSums returns, for every object i, the sum of its scores against all
// other objects — the pCS(p_i) / pSS(p_i) vectors of Eq. 3 and Eq. 6.
func (m *Matrix) RowSums() []float64 {
	sums := make([]float64, m.n)
	k := 0
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			v := m.val[k]
			k++
			sums[i] += v
			sums[j] += v
		}
	}
	return sums
}

// MaxAbsDiff returns the largest absolute difference between corresponding
// entries of m and o. It panics if the sizes differ.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	if m.n != o.n {
		panic("pairs: Matrix size mismatch")
	}
	var max float64
	for k, v := range m.val {
		d := v - o.val[k]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Bytes returns the memory footprint of the packed triangle.
func (m *Matrix) Bytes() int { return len(m.val) * 8 }

// Blend returns wa·a + wb·b: sF of Eq. 13 from sC and sS, and pFS of
// Eq. 11 from pCS and pSS. The fused Step-1 pass stores every sF entry
// with it and code that recomputes a single entry calls it too, so the
// entry it gets has the stored bits. The explicit conversions round each
// product before the sum: without them the compiler may fuse a product
// and the sum into one multiply-add (it does on arm64), and a fused and an
// unfused call site of Blend would disagree in the last bit.
func Blend(wa, a, wb, b float64) float64 { return float64(wa*a) + float64(wb*b) }
