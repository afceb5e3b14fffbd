package layout

import (
	"repro/internal/kernel"
	"repro/internal/mat"
)

// ColMajor stores the whole matrix in a single column-major array, the
// classic LAPACK/ScaLAPACK layout. The paper evaluates it only under
// fully dynamic scheduling (Table 1, "dynamic rectangular") because it
// provides no per-worker contiguity for the static section.
type ColMajor struct {
	Shape
	a *mat.Dense
}

// Block returns the view of block (i,j) with the full-matrix stride.
func (l *ColMajor) Block(i, j int) kernel.View {
	r, c := l.BlockDims(i, j)
	return denseView(l.a, i*l.b, j*l.b, r, c)
}

// SwapRows exchanges global rows r1, r2 within block column jb.
func (l *ColMajor) SwapRows(jb, r1, r2 int) {
	_, c := l.BlockDims(0, jb)
	l.a.SwapRows(r1, r2, jb*l.b, jb*l.b+c)
}

// ToDense returns a copy of the matrix contents.
func (l *ColMajor) ToDense() *mat.Dense { return l.a.Clone() }

// GroupedRows returns one view covering blocks (i..i+width-1, j).
func (l *ColMajor) GroupedRows(i, j, width int) kernel.View {
	v := l.Block(i, j)
	v.Rows = min(width*l.b, l.m-i*l.b)
	return v
}
