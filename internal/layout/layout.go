// Package layout implements the three matrix storage schemes studied in
// the paper (section 4):
//
//   - CM: the classic LAPACK column-major layout.
//   - BCL: the block cyclic layout — the matrix is partitioned into b x b
//     blocks, distributed over a 2D grid of P workers block-cyclically,
//     and each worker's blocks are stored contiguously as one
//     column-major submatrix. A worker's owned block rows are stacked
//     contiguously within each block column, which is what lets the
//     trailing update fuse blocks that share the same columns into one
//     taller BLAS-3 call (the paper's k=3 grouping).
//   - TwoLevel (2l-BL): a two-level block layout — the first level is the
//     same block-cyclic partitioning, the second level stores each b x b
//     block (tile) contiguously, so a tile fits in cache and any
//     operation on it incurs no extra memory transfer.
//
// A Shape (kind, dimensions, block size, worker grid) holds everything
// the three share and everything a task graph is built from: block
// counts and spans, ownership, and which owned block rows are
// contiguous. Each layout embeds one and adds the storage, exposing its
// blocks as kernel.View strided views, so the factorization kernels are
// layout-agnostic; what changes between layouts is physical adjacency —
// which internal/sim turns into cost.
package layout

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Kind identifies a storage scheme.
type Kind int

const (
	// CM is the classic column-major layout (paper: "CM").
	CM Kind = iota
	// BCL is the block cyclic layout (paper: "BCL").
	BCL
	// TwoLevel is the two-level block layout (paper: "2l-BL").
	TwoLevel
)

// String returns the paper's abbreviation for the layout kind.
func (k Kind) String() string {
	switch k {
	case CM:
		return "CM"
	case BCL:
		return "BCL"
	case TwoLevel:
		return "2l-BL"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a layout name as command-line flags spell it:
// "cm", "bcl" (also the empty name), or "2l" / "2l-bl" / "twolevel", in
// any case.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "cm":
		return CM, nil
	case "", "bcl":
		return BCL, nil
	case "2l", "2l-bl", "twolevel":
		return TwoLevel, nil
	}
	return 0, fmt.Errorf("unknown layout %q (use cm, bcl or 2l)", name)
}

// Grid is a 2D process/thread grid. Workers are numbered 0..PR*PC-1 and
// block (I,J) is owned by worker (I mod PR) + PR*(J mod PC), the
// classic 2D block-cyclic ownership the paper's static section uses.
type Grid struct {
	PR int // rows of the grid
	PC int // columns of the grid
}

// NewGrid returns the most-square grid for p workers: PR is the largest
// divisor of p not exceeding sqrt(p).
func NewGrid(p int) Grid {
	if p <= 0 {
		panic(fmt.Sprintf("layout: non-positive worker count %d", p))
	}
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return Grid{PR: pr, PC: p / pr}
}

// Workers returns the total worker count of the grid.
func (g Grid) Workers() int { return g.PR * g.PC }

// Shape is the geometry of an m x n matrix stored in b x b blocks under
// a layout kind on a worker grid: the one definition of block counts,
// block spans, ownership and row-group contiguity. The layouts embed it,
// and the graph builders of internal/dag read nothing else while they
// build, so a graph can be built — and simulated — for a matrix that is
// never allocated.
type Shape struct {
	kind    Kind
	m, n, b int
	grid    Grid
}

// NewShape returns the shape of an m x n matrix of the given kind with
// block size b on grid g.
func NewShape(kind Kind, m, n, b int, g Grid) Shape {
	if b <= 0 {
		panic("layout: block size must be positive")
	}
	return Shape{kind: kind, m: m, n: n, b: b, grid: g}
}

// ShapeOf returns the shape of l.
func ShapeOf(l Layout) Shape {
	m, n, b := l.Dims()
	return Shape{kind: l.Kind(), m: m, n: n, b: b, grid: l.Grid()}
}

// Kind reports the storage scheme.
func (s Shape) Kind() Kind { return s.kind }

// Dims returns matrix rows, cols and the block size b.
func (s Shape) Dims() (m, n, b int) { return s.m, s.n, s.b }

// Blocks returns the block-row and block-column counts (ceil division).
func (s Shape) Blocks() (mb, nb int) { return (s.m + s.b - 1) / s.b, (s.n + s.b - 1) / s.b }

// BlockDims returns the rows and columns of block (i,j). Only the last
// block row and column are ragged.
func (s Shape) BlockDims(i, j int) (rows, cols int) {
	return min(s.b, s.m-i*s.b), min(s.b, s.n-j*s.b)
}

// Grid returns the worker grid used for ownership.
func (s Shape) Grid() Grid { return s.grid }

// Owner returns the worker that owns block (i,j) under the grid. For CM
// the ownership is logical only, used by the static schedule and the
// schedulers' locality accounting.
func (s Shape) Owner(i, j int) int { return i%s.grid.PR + s.grid.PR*(j%s.grid.PC) }

// RowGroupStep is the block-row distance between the owned block rows a
// row group stacks: 1 under CM, whose whole column is one array, and
// the grid's row period PR under the block-cyclic layouts.
func (s Shape) RowGroupStep() int {
	if s.kind == CM {
		return 1
	}
	return s.grid.PR
}

// RowGroupWidth returns how many owned block rows starting at block row
// i (stepping by RowGroupStep) are contiguous in storage within block
// column j, at most maxGroup: up to the matrix edge under CM and BCL,
// always 1 under 2l-BL, whose tiles are not adjacent. This is the
// grouping the paper uses for the trailing update ("blocks that share
// the same columns", section 3): it enlarges the BLAS-3 calls without
// delaying any other column's progress.
func (s Shape) RowGroupWidth(i, j, maxGroup int) int {
	if s.kind == TwoLevel {
		return 1
	}
	mb, _ := s.Blocks()
	step := s.RowGroupStep()
	w := 1
	for w < maxGroup && i+w*step < mb {
		w++
	}
	return w
}

// Layout is the uniform interface over the three storage schemes. Its
// shape queries are the embedded Shape's.
type Layout interface {
	Kind() Kind
	Dims() (m, n, b int)
	Blocks() (mb, nb int)
	BlockDims(i, j int) (rows, cols int)
	Grid() Grid
	Owner(i, j int) int
	RowGroupWidth(i, j, maxGroup int) int
	// Block returns a strided view of block (i,j); edge blocks are smaller.
	Block(i, j int) kernel.View
	// GroupedRows returns one view stacking `width` owned block rows
	// starting at (i,j), RowGroupStep apart. Only valid for
	// width <= RowGroupWidth(i,j,width).
	GroupedRows(i, j, width int) kernel.View
	// ToDense materializes the matrix as a plain column-major Dense.
	ToDense() *mat.Dense
}

// blockIndex gives the block coordinate and intra-block offset of a
// global row or column index.
func blockIndex(x, b int) (blk, off int) { return x / b, x % b }

// ownedSpan returns how many of a dimension's ext elements lie in the
// blocks p, p+period, p+2*period, …; only the last block is ragged.
func ownedSpan(ext, b, p, period int) int {
	full := ext / b
	span := full / period * b
	if r := full % period; p < r {
		span += b
	} else if p == r {
		span += ext % b
	}
	return span
}

// New creates a layout of the given kind holding a copy of src.
func New(kind Kind, src *mat.Dense, b int, g Grid) Layout {
	return build(NewShape(kind, src.Rows, src.Cols, b, g), func(i, j int, run kernel.View) {
		kernel.Copy(run, denseView(src, i*b, j*b, run.Rows, run.Cols))
	})
}
