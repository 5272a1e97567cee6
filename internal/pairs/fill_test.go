package pairs

import (
	"context"
	"errors"
	"testing"
)

// TestFillVisitsEveryRowOnce: every row is handed to the row function
// exactly once, in ascending order, and what the rows write is what Fill
// returns.
func TestFillVisitsEveryRowOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 1000} {
		var visited []int
		m, err := Fill(context.Background(), n, func(m *Matrix, i int) {
			visited = append(visited, i)
			row := m.Row(i)
			for t := range row {
				row[t] = float64(i)
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m.N() != n {
			t.Fatalf("n=%d: N = %d", n, m.N())
		}
		if len(visited) != n {
			t.Fatalf("n=%d: %d rows visited", n, len(visited))
		}
		for k, i := range visited {
			if i != k {
				t.Fatalf("n=%d: visit %d was row %d", n, k, i)
			}
			for j := i + 1; j < n; j++ {
				if m.At(i, j) != float64(i) {
					t.Fatalf("n=%d: (%d,%d) = %v, want %d", n, i, j, m.At(i, j), i)
				}
			}
		}
	}
}

// TestFillCancelMidFlight: a cancel landing while rows are being filled
// makes Fill return ctx.Err() and no matrix, within ctxCheckStride rows.
func TestFillCancelMidFlight(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	m, err := Fill(ctx, n, func(*Matrix, int) {
		if started++; started == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("(%v, %v), want (nil, context.Canceled)", m, err)
	}
	if started > ctxCheckStride {
		t.Errorf("%d rows ran after the cancel, want at most %d", started, ctxCheckStride)
	}
}
