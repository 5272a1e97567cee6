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

// FillRows is Fill for a row function that writes through the row slice:
// rows(i, m.Row(i)) writes the pairs (i, j > i) of row i.
func FillRows(ctx context.Context, n int, rows func(i int, row []float64)) (*Matrix, error) {
	return Fill(ctx, n, func(m *Matrix, i int) { rows(i, m.Row(i)) })
}
