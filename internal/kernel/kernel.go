// Package kernel implements the sequential micro-BLAS and LAPACK-style
// kernels that CALU and the baselines are built from: dgemm, dtrsm,
// unblocked Gaussian elimination with partial pivoting (dgetf2),
// Toledo's recursive LU, row interchanges (dlaswp) and small helpers.
//
// All routines operate on column-major storage described by a base
// slice and a leading dimension (stride), so they work unchanged on
// the column-major, block-cyclic and two-level block layouts in
// internal/layout: each of those exposes blocks as strided views.
//
// The compute hot path — Gemm, GemmNT and the blocked triangular
// solves — is a cache-blocked, packed, register-tiled implementation
// in the Goto/BLIS style (gemm.go, pack.go, microkernel*.go), with an
// AVX2+FMA micro-kernel on amd64 and cache blocking derived once from
// the machine's cache sizes (tuning.go). Every tuned kernel keeps its
// naive loop-nest twin (GemmNaive, TrsmLowerLeftUnitNaive, ...) as the
// correctness oracle: the property tests pin the packed path against
// the naive one, and internal/sim models the performance of tuned BLAS
// independently of either.
package kernel

import (
	"errors"
	"fmt"
	"math"
)

// View describes a column-major submatrix: element (i,j) is
// Data[j*Stride+i]. It is the lingua franca between layouts and kernels.
type View struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// At returns element (i,j) of the view (bounds unchecked; test helper).
func (v View) At(i, j int) float64 { return v.Data[j*v.Stride+i] }

// Set stores element (i,j) of the view (bounds unchecked; test helper).
func (v View) Set(i, j int, x float64) { v.Data[j*v.Stride+i] = x }

// Sub returns the view of rows [i0,i1) x cols [j0,j1).
func (v View) Sub(i0, i1, j0, j1 int) View {
	return View{Rows: i1 - i0, Cols: j1 - j0, Stride: v.Stride, Data: v.Data[j0*v.Stride+i0:]}
}

// Getf2 computes an LU factorization with partial pivoting of the
// m x n view a (m >= n expected for panels), unblocked right-looking.
// On return a holds L (unit diagonal implicit) below and U on/above
// the diagonal, and piv[k] records the row swapped with row k at step
// k (LAPACK ipiv convention, 0-based). If a pivot column is exactly
// singular it returns a *SingularError whose K field is the number of
// fully factored leading columns — piv[0:K] remains valid, so callers
// like the tournament-pivoting fallback can keep the established
// prefix instead of aborting. Getf2 is the scalar oracle of the panel
// layer; the blocked Getrf produces bit-identical pivots and values.
func Getf2(a View, piv []int) error {
	m, n := a.Rows, a.Cols
	steps := min(m, n)
	if len(piv) < steps {
		panic("kernel: getf2 piv too short")
	}
	for k := 0; k < steps; k++ {
		// Find pivot: largest |a(i,k)| for i >= k.
		col := a.Data[k*a.Stride:]
		p, vmax := k, math.Abs(col[k])
		for i := k + 1; i < m; i++ {
			if v := math.Abs(col[i]); v > vmax {
				p, vmax = i, v
			}
		}
		piv[k] = p
		if vmax == 0 {
			return &SingularError{K: k}
		}
		if p != k {
			swapRows(a, k, p)
		}
		// Scale L column and update the trailing submatrix (rank-1).
		akk := col[k]
		inv := 1 / akk
		for i := k + 1; i < m; i++ {
			col[i] *= inv
		}
		for j := k + 1; j < n; j++ {
			akj := a.Data[j*a.Stride+k]
			cj := a.Data[j*a.Stride:]
			for i := k + 1; i < m; i++ {
				cj[i] -= float64(col[i] * akj)
			}
		}
	}
	return nil
}

// RecursiveLU computes the same factorization as Getf2 using Toledo's
// recursive formulation, which the paper uses as the sequential panel
// operator inside TSLU (section 3, "in our experiments we use
// recursive LU"). piv uses the same convention as Getf2. Leaves at or
// below the panelCrossover width run the blocked register-tiled Getrf
// (bit-identical to Getf2), and the supra-leaf solve and update steps
// ride the blocked TRSM and packed GEMM, so a tall panel factorization
// runs at matrix-matrix speed. Like Getf2 it reports an exactly
// singular pivot column as a *SingularError carrying the established
// prefix length; piv[0:K] is valid on return.
func RecursiveLU(a View, piv []int) error {
	m, n := a.Rows, a.Cols
	steps := min(m, n)
	if steps <= panelCrossover {
		return Getrf(a, piv)
	}
	nl := steps / 2
	left := a.Sub(0, m, 0, nl)
	if err := RecursiveLU(left, piv[:nl]); err != nil {
		// The left half starts at column 0, so its established prefix is
		// already in global coordinates.
		return err
	}
	// Apply the left swaps to the right half, solve for U12, update A22.
	right := a.Sub(0, m, nl, n)
	for k := 0; k < nl; k++ {
		if piv[k] != k {
			swapRows(right, k, piv[k])
		}
	}
	l11 := a.Sub(0, nl, 0, nl)
	u12 := a.Sub(0, nl, nl, n)
	TrsmLowerLeftUnit(l11, u12)
	a21 := a.Sub(nl, m, 0, nl)
	a22 := a.Sub(nl, m, nl, n)
	Gemm(a22, a21, u12)
	l21 := a.Sub(nl, m, 0, nl)
	if err := RecursiveLU(a22, piv[nl:steps]); err != nil {
		// Globalize the right half's established prefix — offset its
		// pivots and replay their swaps on the left half exactly as the
		// success path does — so piv[0:nl+K] stays usable.
		var se *SingularError
		if !errors.As(err, &se) {
			return err
		}
		offsetRightPivots(l21, piv, nl, nl+se.K)
		return &SingularError{K: nl + se.K}
	}
	// Offset the recursion's pivots and apply them to the left half.
	offsetRightPivots(l21, piv, nl, steps)
	return nil
}

// offsetRightPivots converts the right-recursion pivots piv[k0:k1]
// (local to the trailing submatrix starting at row/column k0) into
// global indices and applies the corresponding row swaps to the left
// block l21.
func offsetRightPivots(l21 View, piv []int, k0, k1 int) {
	for k := k0; k < k1; k++ {
		piv[k] += k0
		if piv[k] != k {
			swapRows(l21, k-k0, piv[k]-k0)
		}
	}
}

// swapRows exchanges rows r1 and r2 across all columns of v.
func swapRows(v View, r1, r2 int) {
	for j := 0; j < v.Cols; j++ {
		off := j * v.Stride
		v.Data[off+r1], v.Data[off+r2] = v.Data[off+r2], v.Data[off+r1]
	}
}

// Laswp applies the row interchanges piv[k0:k1] (Getf2 convention) to
// v, forward order. Used to replay panel pivoting on other column
// blocks.
func Laswp(v View, piv []int, k0, k1 int) {
	for k := k0; k < k1; k++ {
		if piv[k] != k {
			swapRows(v, k, piv[k])
		}
	}
}

// GetrfNoPiv factors the view without pivoting (used on the b x b
// pivot block after tournament pivoting has moved the chosen rows into
// place). Returns an error on a zero diagonal. Blocks wide enough to
// amortize packing ride the same micro-panel + register-tiled sweep as
// Getrf, bit-identical to the unblocked scalar loop.
func GetrfNoPiv(a View) error {
	m, n := a.Rows, a.Cols
	steps := min(m, n)
	if useNaiveKernels || !panelBlockedWorthwhile(m, steps) {
		return getrfNoPivUnblocked(a, 0)
	}
	for j0 := 0; j0 < steps; j0 += pmr {
		w := min(pmr, steps-j0)
		if err := getrfNoPivUnblocked(a.Sub(j0, m, j0, j0+w), j0); err != nil {
			return err
		}
		if j0+w < n {
			trsmLowerLeftUnitNaive(a.Sub(j0, j0+w, j0, j0+w), a.Sub(j0, j0+w, j0+w, n))
			if j0+w < m {
				panelUpdate(a.Sub(j0+w, m, j0+w, n), a.Sub(j0+w, m, j0, j0+w), a.Sub(j0, j0+w, j0+w, n))
			}
		}
	}
	return nil
}

// getrfNoPivUnblocked is the scalar right-looking no-pivot LU, the
// oracle of the blocked path and its micro-panel operator. col0 offsets
// the error's reported column for micro-panel calls.
func getrfNoPivUnblocked(a View, col0 int) error {
	n := min(a.Rows, a.Cols)
	for k := 0; k < n; k++ {
		akk := a.Data[k*a.Stride+k]
		if akk == 0 {
			return fmt.Errorf("kernel: no-pivot LU zero diagonal at %d", col0+k)
		}
		inv := 1 / akk
		col := a.Data[k*a.Stride:]
		for i := k + 1; i < a.Rows; i++ {
			col[i] *= inv
		}
		for j := k + 1; j < a.Cols; j++ {
			akj := a.Data[j*a.Stride+k]
			cj := a.Data[j*a.Stride:]
			for i := k + 1; i < a.Rows; i++ {
				cj[i] -= float64(col[i] * akj)
			}
		}
	}
	return nil
}

// Copy copies src into dst element-wise; shapes must match.
func Copy(dst, src View) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("kernel: copy shape mismatch %dx%d <- %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < src.Cols; j++ {
		copy(dst.Data[j*dst.Stride:j*dst.Stride+dst.Rows], src.Data[j*src.Stride:j*src.Stride+src.Rows])
	}
}

// Potf2 computes the unblocked Cholesky factorization A = L*L^T of the
// symmetric positive definite n x n view (lower triangle referenced),
// storing L in the lower triangle. Returns an error if a non-positive
// pivot shows that the matrix is not positive definite.
func Potf2(a View) error {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("kernel: potf2 needs square input, got %dx%d", n, a.Cols))
	}
	for k := 0; k < n; k++ {
		akk := a.Data[k*a.Stride+k]
		for j := 0; j < k; j++ {
			v := a.Data[j*a.Stride+k]
			akk -= v * v
		}
		if akk <= 0 {
			return fmt.Errorf("kernel: potf2 non-positive pivot %g at %d", akk, k)
		}
		akk = math.Sqrt(akk)
		a.Data[k*a.Stride+k] = akk
		inv := 1 / akk
		for i := k + 1; i < n; i++ {
			s := a.Data[k*a.Stride+i]
			for j := 0; j < k; j++ {
				s -= a.Data[j*a.Stride+i] * a.Data[j*a.Stride+k]
			}
			a.Data[k*a.Stride+i] = s * inv
		}
	}
	return nil
}
