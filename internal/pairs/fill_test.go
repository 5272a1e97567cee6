package pairs

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFillVisitsEveryRowOnce: whatever the worker count, every row is
// handed to exactly one row function exactly once, each worker gets its
// own row function, and what the rows write is what Fill returns.
func TestFillVisitsEveryRowOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 7, n + 3} {
			visits := make([]atomic.Int32, n)
			var made int
			m, err := Fill(context.Background(), n, workers, func(m *Matrix) func(int) {
				made++
				return func(i int) {
					visits[i].Add(1)
					row := m.Row(i)
					for t := range row {
						row[t] = float64(i)
					}
				}
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if m.N() != n {
				t.Fatalf("n=%d workers=%d: N = %d", n, workers, m.N())
			}
			if made < 1 || made > max(1, workers) {
				t.Errorf("n=%d workers=%d: %d row functions made", n, workers, made)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("n=%d workers=%d: row %d visited %d times", n, workers, i, v)
				}
				for j := i + 1; j < n; j++ {
					if m.At(i, j) != float64(i) {
						t.Fatalf("n=%d workers=%d: (%d,%d) = %v, want %d", n, workers, i, j, m.At(i, j), i)
					}
				}
			}
		}
	}
}

// TestFillCancelMidFlight: a cancel landing while rows are being filled
// makes Fill return ctx.Err() and no matrix, on the inline path and the
// fan-out alike, and no row runs once Fill has returned.
func TestFillCancelMidFlight(t *testing.T) {
	const n = 1000
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, running atomic.Int64
		m, err := Fill(ctx, n, workers, func(*Matrix) func(int) {
			return func(int) {
				running.Add(1)
				defer running.Add(-1)
				if started.Add(1) == 1 {
					cancel()
				}
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) || m != nil {
			t.Fatalf("workers=%d: (%v, %v), want (nil, context.Canceled)", workers, m, err)
		}
		if got := started.Load(); got >= n {
			t.Errorf("workers=%d: all %d rows ran despite the cancel", workers, got)
		}
		if r := running.Load(); r != 0 {
			t.Errorf("workers=%d: %d rows still running after Fill returned", workers, r)
		}
	}
	// The workers' deferred wg.Done runs just before each goroutine exits,
	// so allow the scheduler a moment to retire them.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived Fill", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}
