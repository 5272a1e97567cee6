package pairs

import "context"

// ctxCheckStride is the number of rows Fill completes between context
// polls: cancellation is observed within O(32·n) pair computations while
// the poll cost vanishes against the O(n) row work.
const ctxCheckStride = 32

// Fill allocates an n×n matrix and fills it one row at a time, in order,
// on the caller's goroutine: row(m, i) must write the pairs (i, j > i)
// of m and nothing else.
//
// Fill polls ctx every ctxCheckStride rows. On cancellation the partial
// matrix is discarded and ctx.Err() returned.
func Fill(ctx context.Context, n int, row func(m *Matrix, i int)) (*Matrix, error) {
	m := New(n)
	for i := 0; i < n; i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row(m, i)
	}
	return m, nil
}

// Rows is a source of pair-score rows: Row(i, lo, dst) writes the score
// of the pair (i, lo+t) into dst[t] for every t below len(dst). The entry
// for the pair (i, i), if the window holds it, is left unspecified.
type Rows interface {
	Row(i, lo int, dst []float64)
}

// FillRows is Fill for a row source: row i of the matrix is
// src.Row(i, i+1, m.Row(i)).
func FillRows(ctx context.Context, n int, src Rows) (*Matrix, error) {
	return Fill(ctx, n, func(m *Matrix, i int) { src.Row(i, i+1, m.Row(i)) })
}
