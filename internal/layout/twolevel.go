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
// also from the paper, is that adjacent owned blocks are *not*
// contiguous, so trailing updates cannot be grouped into larger gemms
// without copying — which the paper (and this implementation) does not
// do.
type TwoLevelBlock struct {
	Shape
	// data holds all tiles back to back, tile column by tile column;
	// a tile's stride equals its row count.
	data []float64
}

// Block returns the contiguous tile (i,j); its stride is its row count.
// Only the last tile row and column are ragged, so the j tile columns
// before it hold m*b elements each and the i tiles above it b*c each.
func (l *TwoLevelBlock) Block(i, j int) kernel.View {
	r, c := l.BlockDims(i, j)
	start := j*l.b*l.m + i*l.b*c
	return kernel.View{Rows: r, Cols: c, Stride: r, Data: l.data[start : start+r*c]}
}

// ToDense materializes the matrix as column major.
func (l *TwoLevelBlock) ToDense() *mat.Dense { return toDenseViaBlocks(l) }

// GroupedRows with width 1 degenerates to Block; larger widths are a
// programming error for this layout.
func (l *TwoLevelBlock) GroupedRows(i, j, width int) kernel.View {
	if width != 1 {
		panic(fmt.Sprintf("layout: 2l-BL cannot group %d block rows", width))
	}
	return l.Block(i, j)
}
