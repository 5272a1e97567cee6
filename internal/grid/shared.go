package grid

import (
	"sync"
	"sync/atomic"
)

// sharedSquaredCells is |G_MAX| of the process's squared table: it covers
// the paper's |G| ≈ K rule up to K = 1 024 in 8.4 MB. The table grows with
// the fourth power of its side, so it is not sized from the largest K a
// server accepts; a wider grid computes its cell-centre similarities
// directly (see SquaredPairs).
const sharedSquaredCells = 1024

var (
	builtSquared  atomic.Pointer[SquaredTable] // the shared table once built
	sharedSquared = sync.OnceValue(func() *SquaredTable {
		t := NewSquaredTable(SideForCells(sharedSquaredCells))
		builtSquared.Store(t)
		return t
	})
	sharedRadial = sync.OnceValue(NewRadialTable)
)

// SharedSquaredTable returns the process's squared table, building it on
// first use. By Theorem 7.1 cell-centre similarities depend only on cell
// positions measured in whole cells, so one table serves every query
// location, grid size and corpus.
func SharedSquaredTable() *SquaredTable { return sharedSquared() }

// SharedRadialTable returns the process's radial table, which memoises
// one matrix per ring count on first use.
func SharedRadialTable() *RadialTable { return sharedRadial() }

// SharedTableStats reports the shared tables built so far: whether the
// squared table is, the ring counts whose radial matrices are, and their
// combined bytes.
func SharedTableStats() (squared bool, radialResolutions, bytes int) {
	if t := builtSquared.Load(); t != nil {
		squared, bytes = true, t.Bytes()
	}
	rad := sharedRadial()
	return squared, rad.Resolutions(), bytes + rad.Bytes()
}
