package pairs

import (
	"context"
	"sync"
	"sync/atomic"
)

// ctxCheckStride is the number of rows a filling goroutine completes
// between context polls: cancellation is observed within O(32·n) pair
// computations while the poll cost vanishes against the O(n) row work.
const ctxCheckStride = 32

// minParallelRows is the matrix size below which Fill runs every row on
// the caller's goroutine whatever the worker count: under it, starting and
// joining goroutines costs more than the rows they would share.
const minParallelRows = 64

// Fill allocates an n×n matrix and fills it one row at a time. The row
// function for row i must write the pairs (i, j > i) and nothing else, so
// rows are independent of each other. newWorker is called once per filling
// goroutine — sequentially, on the caller's goroutine, before any row
// runs — and returns that goroutine's row function, so per-worker scratch
// lives in its closure.
//
// With workers ≤ 1 or n < minParallelRows the rows run in order on the
// caller's goroutine; otherwise min(workers, n) goroutines claim rows from
// a shared cursor (the per-row work of the triangle shrinks with i, so
// dynamic claiming balances it). Either way every row is filled exactly
// once by the caller's own arithmetic, so the matrix is bit-identical for
// every worker count.
//
// Each goroutine polls ctx every ctxCheckStride rows. On cancellation the
// partial matrix is discarded and ctx.Err() returned; no goroutine
// outlives the call.
func Fill(ctx context.Context, n, workers int, newWorker func(m *Matrix) func(i int)) (*Matrix, error) {
	m := New(n)
	if workers <= 1 || n < minParallelRows {
		row := newWorker(m)
		for i := 0; i < n; i++ {
			if i%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			row(i)
		}
		return m, nil
	}
	rows := make([]func(int), min(workers, n))
	for w := range rows {
		rows[w] = newWorker(m)
	}
	var cursor atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for _, row := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; ; done++ {
				if done%ctxCheckStride == 0 && ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				row(i)
			}
		}()
	}
	wg.Wait()
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return m, nil
}

// FillRows is Fill for a row function that keeps no per-worker state:
// rows(i, m.Row(i)) writes the pairs (i, j > i) of row i and may run on
// several goroutines at once.
func FillRows(ctx context.Context, n, workers int, rows func(i int, row []float64)) (*Matrix, error) {
	return Fill(ctx, n, workers, func(m *Matrix) func(int) {
		return func(i int) { rows(i, m.Row(i)) }
	})
}
