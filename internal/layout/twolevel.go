package layout

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// TwoLevelBlock is the paper's 2l-BL layout: the first level is the
// same block-cyclic partitioning as BCL, the second level stores each
// b x b block (tile) contiguously in memory, so that with an
// appropriate b a tile fits in some level of cache and any operation on
// it incurs no extra memory transfer (section 4.2). The flip side,
// also from the paper, is that adjacent owned block columns are *not*
// contiguous, so trailing updates cannot be grouped into larger gemms
// without copying — which the paper (and this implementation) does not
// do.
type TwoLevelBlock struct {
	m, n, b int
	grid    Grid
	// data holds all tiles back to back, tile column by tile column;
	// a tile's stride equals its row count.
	data []float64
}

// Kind reports TwoLevel.
func (l *TwoLevelBlock) Kind() Kind { return TwoLevel }

// Dims returns rows, cols and block size.
func (l *TwoLevelBlock) Dims() (int, int, int) { return l.m, l.n, l.b }

// Blocks returns the block grid extents.
func (l *TwoLevelBlock) Blocks() (int, int) { return numBlocks(l.m, l.b), numBlocks(l.n, l.b) }

// Grid returns the worker grid.
func (l *TwoLevelBlock) Grid() Grid { return l.grid }

// Owner returns the block-cyclic owner of block (i,j).
func (l *TwoLevelBlock) Owner(i, j int) int { return l.grid.Owner(i, j) }

// Block returns the contiguous tile (i,j); its stride is its row count.
// Only the last tile row and column are ragged, so the j tile columns
// before it hold m*b elements each and the i tiles above it b*c each.
func (l *TwoLevelBlock) Block(i, j int) kernel.View {
	r := blockSpan(i, l.b, l.m)
	c := blockSpan(j, l.b, l.n)
	start := j*l.b*l.m + i*l.b*c
	return kernel.View{Rows: r, Cols: c, Stride: r, Data: l.data[start : start+r*c]}
}

// SwapRows exchanges global rows r1, r2 within block column jb.
func (l *TwoLevelBlock) SwapRows(jb, r1, r2 int) { swapViaBlocks(l, jb, r1, r2) }

// GroupWidth always reports 1: tiles are not adjacent in memory, so
// grouped BLAS-3 calls are impossible without copying (section 4.2).
func (l *TwoLevelBlock) GroupWidth(i, j, maxGroup int) int { return 1 }

// GroupedBlock with width 1 degenerates to Block; larger widths are a
// programming error for this layout.
func (l *TwoLevelBlock) GroupedBlock(i, j, width int) kernel.View {
	if width != 1 {
		panic(fmt.Sprintf("layout: 2l-BL cannot group %d block columns", width))
	}
	return l.Block(i, j)
}

// ToDense materializes the matrix as column major.
func (l *TwoLevelBlock) ToDense() *mat.Dense { return toDenseViaBlocks(l) }

// RowGroupWidth always reports 1: tiles are not vertically adjacent in
// memory either.
func (l *TwoLevelBlock) RowGroupWidth(i, j, maxGroup int) int { return 1 }

// GroupedRows with width 1 degenerates to Block; larger widths are a
// programming error for this layout.
func (l *TwoLevelBlock) GroupedRows(i, j, width int) kernel.View {
	if width != 1 {
		panic(fmt.Sprintf("layout: 2l-BL cannot group %d block rows", width))
	}
	return l.Block(i, j)
}
