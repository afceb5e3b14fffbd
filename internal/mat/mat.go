// Package mat provides the dense matrix substrate used throughout the
// repository: a column-major matrix type with strided views, norms,
// residual helpers and seeded random generators.
//
// The column-major convention (element (i,j) lives at Data[j*Stride+i])
// matches LAPACK and the paper's description of the classic layout, and
// lets every other layout in internal/layout expose its blocks as cheap
// strided views without copying.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a column-major matrix view. It may own its backing slice or
// alias a region of a larger allocation; the type does not distinguish.
// The zero value is an empty matrix.
type Dense struct {
	Rows   int
	Cols   int
	Stride int // distance in Data between columns; Stride >= Rows
	Data   []float64
}

// New allocates an r x c zero matrix with a tight stride.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: max(r, 1), Data: make([]float64, r*c)}
}

// FromColMajor wraps an existing column-major slice without copying.
func FromColMajor(r, c, stride int, data []float64) *Dense {
	if stride < r {
		panic(fmt.Sprintf("mat: stride %d < rows %d", stride, r))
	}
	need := 0
	if r > 0 && c > 0 {
		need = (c-1)*stride + r
	}
	if len(data) < need {
		panic(fmt.Sprintf("mat: slice length %d too short for %dx%d stride %d", len(data), r, c, stride))
	}
	return &Dense{Rows: r, Cols: c, Stride: stride, Data: data}
}

// FromRowMajor returns the r x c matrix whose rows lie end to end in
// data, transposed tile by tile so the strided side of the copy stays
// in a cache-resident tile instead of missing once per element.
func FromRowMajor(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: %d row-major values for %dx%d", len(data), r, c))
	}
	const tile = 32
	a := New(r, c)
	for j0 := 0; j0 < c; j0 += tile {
		for i0 := 0; i0 < r; i0 += tile {
			for j := j0; j < min(j0+tile, c); j++ {
				col := a.Data[j*a.Stride:]
				for i := i0; i < min(i0+tile, r); i++ {
					col[i] = data[i*c+j]
				}
			}
		}
	}
	return a
}

// At returns element (i,j).
func (a *Dense) At(i, j int) float64 {
	a.checkIdx(i, j)
	return a.Data[j*a.Stride+i]
}

// Set stores v at element (i,j).
func (a *Dense) Set(i, j int, v float64) {
	a.checkIdx(i, j)
	a.Data[j*a.Stride+i] = v
}

func (a *Dense) checkIdx(i, j int) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, a.Rows, a.Cols))
	}
}

// Col returns the j-th column as a slice aliasing the matrix storage.
func (a *Dense) Col(j int) []float64 {
	if j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("mat: column %d out of range %d", j, a.Cols))
	}
	return a.Data[j*a.Stride : j*a.Stride+a.Rows]
}

// Slice returns a view of rows [i0,i1) and columns [j0,j1). The view
// aliases the receiver's storage.
func (a *Dense) Slice(i0, i1, j0, j1 int) *Dense {
	if i0 < 0 || i1 < i0 || i1 > a.Rows || j0 < 0 || j1 < j0 || j1 > a.Cols {
		panic(fmt.Sprintf("mat: bad slice [%d:%d,%d:%d] of %dx%d", i0, i1, j0, j1, a.Rows, a.Cols))
	}
	return &Dense{
		Rows:   i1 - i0,
		Cols:   j1 - j0,
		Stride: a.Stride,
		Data:   a.Data[j0*a.Stride+i0:],
	}
}

// Clone returns a deep copy with a tight stride.
func (a *Dense) Clone() *Dense {
	b := New(a.Rows, a.Cols)
	b.CopyFrom(a)
	return b
}

// CopyFrom copies src into the receiver; dimensions must match.
func (a *Dense) CopyFrom(src *Dense) {
	if a.Rows != src.Rows || a.Cols != src.Cols {
		panic(fmt.Sprintf("mat: copy dimension mismatch %dx%d <- %dx%d", a.Rows, a.Cols, src.Rows, src.Cols))
	}
	// A matrix with no rows may have no storage (New, FromColMajor), so its
	// columns cannot be sliced.
	for j := 0; a.Rows > 0 && j < a.Cols; j++ {
		copy(a.Data[j*a.Stride:j*a.Stride+a.Rows], src.Data[j*src.Stride:j*src.Stride+a.Rows])
	}
}

// Zero sets every element to 0.
func (a *Dense) Zero() {
	for j := 0; a.Rows > 0 && j < a.Cols; j++ {
		col := a.Data[j*a.Stride : j*a.Stride+a.Rows]
		for i := range col {
			col[i] = 0
		}
	}
}

// Eye returns the n x n identity.
func Eye(n int) *Dense {
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	return a
}

// Random fills an r x c matrix with uniform values in [-1,1) drawn from
// rng. Callers pass a seeded rand.Rand so experiments are reproducible.
func Random(r, c int, rng *rand.Rand) *Dense {
	a := New(r, c)
	for i := range a.Data {
		a.Data[i] = 2*rng.Float64() - 1
	}
	return a
}

// RandomDiagDominant fills an n x n matrix with uniform noise plus a
// dominant diagonal, guaranteeing well-conditioned factorizations for
// tests that want tight residual bounds.
func RandomDiagDominant(n int, rng *rand.Rand) *Dense {
	a := Random(n, n, rng)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// SwapRows exchanges rows r1 and r2 over columns [j0,j1).
func (a *Dense) SwapRows(r1, r2, j0, j1 int) {
	if r1 == r2 {
		return
	}
	for j := j0; j < j1; j++ {
		off := j * a.Stride
		a.Data[off+r1], a.Data[off+r2] = a.Data[off+r2], a.Data[off+r1]
	}
}

// PermuteRows returns a new matrix whose row i is src row perm[i].
func PermuteRows(src *Dense, perm []int) *Dense {
	if len(perm) != src.Rows {
		panic(fmt.Sprintf("mat: permutation length %d != rows %d", len(perm), src.Rows))
	}
	out := New(src.Rows, src.Cols)
	for j := 0; j < src.Cols; j++ {
		for i := 0; i < src.Rows; i++ {
			out.Set(i, j, src.At(perm[i], j))
		}
	}
	return out
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|, NaN if any difference is
// NaN, so a tolerance check on it fails closed.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: MaxAbsDiff dimension mismatch")
	}
	m := 0.0
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			d := math.Abs(a.At(i, j) - b.At(i, j))
			if d > m || math.IsNaN(d) {
				m = d
			}
		}
	}
	return m
}

// NormInf returns the infinity norm (max absolute row sum).
func (a *Dense) NormInf() float64 {
	sums := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			sums[i] += math.Abs(a.At(i, j))
		}
	}
	m := 0.0
	for _, s := range sums {
		if s > m {
			m = s
		}
	}
	return m
}

// NormMax returns max_ij |a_ij|, NaN if any entry is NaN.
func (a *Dense) NormMax() float64 {
	m := 0.0
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			v := math.Abs(a.At(i, j))
			if v > m || math.IsNaN(v) {
				m = v
			}
		}
	}
	return m
}

// NormFro returns the Frobenius norm.
func (a *Dense) NormFro() float64 {
	s := 0.0
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			v := a.At(i, j)
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// MulNaive returns a*b using the textbook triple loop. It is the oracle
// against which the blocked kernels are tested.
func MulNaive(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		for k := 0; k < a.Cols; k++ {
			bkj := b.At(k, j)
			if bkj == 0 {
				continue
			}
			for i := 0; i < a.Rows; i++ {
				c.Data[j*c.Stride+i] += a.At(i, k) * bkj
			}
		}
	}
	return c
}

// Equal reports whether a and b have identical shape and elements within tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}

// String renders small matrices for test failure messages.
func (a *Dense) String() string {
	if a.Rows*a.Cols > 400 {
		return fmt.Sprintf("Dense{%dx%d}", a.Rows, a.Cols)
	}
	s := ""
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			s += fmt.Sprintf("%9.4f ", a.At(i, j))
		}
		s += "\n"
	}
	return s
}
