package layout

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// BlockCyclic is the paper's BCL layout: the matrix is partitioned into
// b x b blocks distributed block-cyclically over the worker grid, and
// each worker's blocks are stored contiguously in its own column-major
// submatrix. Within one block column, a worker's owned block rows sit
// on top of each other, so the trailing update can fuse the blocks of
// one owner that share the same columns into a single taller gemm (the
// k=3 grouping of section 3) — the property that makes BCL win on large
// matrices (section 5.1.3).
type BlockCyclic struct {
	Shape
	// sub[w] is worker w's contiguous column-major submatrix.
	sub []*mat.Dense
}

// Block returns the strided view of block (i,j) inside its owner's
// contiguous submatrix. The local offset arithmetic relies on only the
// globally last block row/column being ragged, so every earlier owned
// block contributes a full b rows/columns.
func (l *BlockCyclic) Block(i, j int) kernel.View {
	s := l.sub[l.Owner(i, j)]
	li, lj := i/l.grid.PR, j/l.grid.PC
	r, c := l.BlockDims(i, j)
	return kernel.View{Rows: r, Cols: c, Stride: s.Stride, Data: s.Data[lj*l.b*s.Stride+li*l.b:]}
}

// SwapRows exchanges global rows r1, r2 within block column jb.
func (l *BlockCyclic) SwapRows(jb, r1, r2 int) { swapViaBlocks(l, jb, r1, r2) }

// ToDense materializes the matrix as column major.
func (l *BlockCyclic) ToDense() *mat.Dense { return toDenseViaBlocks(l) }

// GroupedRows returns one view stacking blocks (i, j), (i+PR, j), ...
// (i+(width-1)*PR, j), which are vertically contiguous in the owner's
// storage.
func (l *BlockCyclic) GroupedRows(i, j, width int) kernel.View {
	if width < 1 || width > l.RowGroupWidth(i, j, width) {
		panic(fmt.Sprintf("layout: invalid row group width %d at block (%d,%d)", width, i, j))
	}
	v := l.Block(i, j)
	last, _ := l.BlockDims(i+(width-1)*l.grid.PR, j)
	v.Rows = (width-1)*l.b + last
	return v
}

// Rect returns one view of the owned blocks (i+a*PR, j+c*PC) for
// a < rows, c < cols: GroupedRows stacks them within one block column,
// and the owner's block columns sit side by side in its submatrix, so
// any run of them is one strided rectangle.
func (l *BlockCyclic) Rect(i, j, rows, cols int) kernel.View {
	_, nb := l.Blocks()
	if cols < 1 || j+(cols-1)*l.grid.PC >= nb {
		panic(fmt.Sprintf("layout: invalid block column count %d at block (%d,%d)", cols, i, j))
	}
	v := l.GroupedRows(i, j, rows)
	_, last := l.BlockDims(i, j+(cols-1)*l.grid.PC)
	v.Cols = (cols-1)*l.b + last
	return v
}
