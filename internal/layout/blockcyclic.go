package layout

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// BlockCyclic is the paper's BCL layout: the matrix is partitioned into
// b x b blocks distributed block-cyclically over the worker grid, and
// each worker's blocks are stored contiguously in its own column-major
// submatrix. Within one worker, owned block columns sit next to each
// other, so updates that touch several owned block columns in the same
// block row can issue a single larger gemm (the k=3 grouping of
// section 3) — the property that makes BCL win on large matrices
// (section 5.1.3).
type BlockCyclic struct {
	m, n, b int
	grid    Grid
	// sub[w] is worker w's contiguous column-major submatrix.
	sub []*mat.Dense
}

// Kind reports BCL.
func (l *BlockCyclic) Kind() Kind { return BCL }

// Dims returns rows, cols and block size.
func (l *BlockCyclic) Dims() (int, int, int) { return l.m, l.n, l.b }

// Blocks returns the block grid extents.
func (l *BlockCyclic) Blocks() (int, int) { return numBlocks(l.m, l.b), numBlocks(l.n, l.b) }

// Grid returns the worker grid.
func (l *BlockCyclic) Grid() Grid { return l.grid }

// Owner returns the block-cyclic owner of block (i,j).
func (l *BlockCyclic) Owner(i, j int) int { return l.grid.Owner(i, j) }

// Block returns the strided view of block (i,j) inside its owner's
// contiguous submatrix. The local offset arithmetic relies on only the
// globally last block row/column being ragged, so every earlier owned
// block contributes a full b rows/columns.
func (l *BlockCyclic) Block(i, j int) kernel.View {
	w := l.grid.Owner(i, j)
	s := l.sub[w]
	li, lj := i/l.grid.PR, j/l.grid.PC
	return kernel.View{
		Rows:   blockSpan(i, l.b, l.m),
		Cols:   blockSpan(j, l.b, l.n),
		Stride: s.Stride,
		Data:   s.Data[lj*l.b*s.Stride+li*l.b:],
	}
}

// SwapRows exchanges global rows r1, r2 within block column jb.
func (l *BlockCyclic) SwapRows(jb, r1, r2 int) { swapViaBlocks(l, jb, r1, r2) }

// GroupWidth reports how many owned block columns starting at j
// (stepping by the grid's column period PC) can be fused into one
// contiguous view, capped at maxGroup.
func (l *BlockCyclic) GroupWidth(i, j, maxGroup int) int {
	_, nb := l.Blocks()
	w := 1
	for w < maxGroup && j+w*l.grid.PC < nb {
		w++
	}
	return w
}

// GroupedBlock returns one view covering blocks (i, j), (i, j+PC), ...
// (i, j+(width-1)*PC), which are contiguous in the owner's storage.
func (l *BlockCyclic) GroupedBlock(i, j, width int) kernel.View {
	if width < 1 || width > l.GroupWidth(i, j, width) {
		panic(fmt.Sprintf("layout: invalid group width %d at block (%d,%d)", width, i, j))
	}
	v := l.Block(i, j)
	v.Cols = (width-1)*l.b + blockSpan(j+(width-1)*l.grid.PC, l.b, l.n)
	return v
}

// ToDense materializes the matrix as column major.
func (l *BlockCyclic) ToDense() *mat.Dense { return toDenseViaBlocks(l) }

// RowGroupWidth reports how many owned block rows starting at i
// (stepping by the grid's row period PR) can be fused into one
// contiguous tall view, capped at maxGroup.
func (l *BlockCyclic) RowGroupWidth(i, j, maxGroup int) int {
	mb, _ := l.Blocks()
	w := 1
	for w < maxGroup && i+w*l.grid.PR < mb {
		w++
	}
	return w
}

// GroupedRows returns one view stacking blocks (i, j), (i+PR, j), ...
// (i+(width-1)*PR, j), which are vertically contiguous in the owner's
// storage.
func (l *BlockCyclic) GroupedRows(i, j, width int) kernel.View {
	if width < 1 || width > l.RowGroupWidth(i, j, width) {
		panic(fmt.Sprintf("layout: invalid row group width %d at block (%d,%d)", width, i, j))
	}
	v := l.Block(i, j)
	v.Rows = (width-1)*l.b + blockSpan(i+(width-1)*l.grid.PR, l.b, l.m)
	return v
}
