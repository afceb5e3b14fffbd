package kernel

import (
	"errors"
	"fmt"
	"math"
)

// This file is the blocked panel-factorization layer: a register-tiled
// GETRF that replaces scalar Getf2 on the panel critical path. The
// factorization is decomposed into mr-column micro-panels:
//
//   - getf2Micro factors one m x w micro-panel (w <= mr) with a
//     two-pass vectorizable idamax over the pivot column and unrolled
//     rank-1 sweeps over the remaining micro columns;
//   - the w pivot swaps are replayed on the columns left and right of
//     the micro-panel (LAPACK's dlaswp step);
//   - the U rows of the trailing columns are solved by the naive
//     forward substitution (w x w unit triangle, w <= mr);
//   - the rank-w trailing update C -= L21 * U12 runs through the packed
//     register-tiled sweep in panelkernel*.go, reusing the GEMM packing
//     formats and workspace pool.
//
// Every path performs, per matrix element, exactly the multiply/
// subtract sequence of scalar Getf2 in the same k order: the panel
// kernels use separate VMULPD/VSUBPD (never FMA, which would fuse the
// rounding) and each rank-1 step is applied individually instead of
// being accumulated dot-product style. The Go loops write every such
// step as c -= float64(a*b): the Go spec allows fusing x*y into a
// following +/- (the arm64 backend emits FMSUBD), and only the explicit
// conversion forces the product to round first. So the blocked
// factorization produces pivots AND values bit-identical to Getf2 on
// every target — the property the tests pin (CI disassembles the arm64
// build for fused ops) and the reason piv tournaments behave
// identically on every path.

// SingularError reports an exactly singular pivot column. K is the
// number of leading columns that were fully factored before the failure
// (the "established prefix"): piv[0:K] holds their pivot rows and is
// valid, while the matrix contents and piv entries from column K on are
// unspecified. Callers that can proceed with a partial factorization —
// the tournament-pivoting fallback in internal/piv — recover K with
// errors.As instead of aborting.
type SingularError struct {
	// K counts the factored leading columns; the zero pivot was met in
	// column K.
	K int
}

func (e *SingularError) Error() string {
	return fmt.Sprintf("kernel: singular pivot column %d", e.K)
}

// Getrf computes the same LU factorization with partial pivoting as
// Getf2 — bit-identical pivots and values — using the blocked
// micro-panel algorithm above, so a tall panel runs at a large fraction
// of packed-GEMM speed instead of scalar speed. piv follows the Getf2
// convention. On an exactly singular pivot column it returns a
// *SingularError carrying the established prefix length.
func Getrf(a View, piv []int) error {
	m, n := a.Rows, a.Cols
	steps := min(m, n)
	if len(piv) < steps {
		panic("kernel: getrf piv too short")
	}
	if useNaiveKernels || !panelBlockedWorthwhile(m, n) {
		return Getf2(a, piv)
	}
	for j0 := 0; j0 < steps; j0 += pmr {
		w := min(pmr, steps-j0)
		micro := a.Sub(j0, m, j0, j0+w)
		if err := getf2Micro(micro, piv[j0:j0+w]); err != nil {
			var se *SingularError
			if !errors.As(err, &se) {
				return err
			}
			// Globalize the established prefix: offset its pivot rows and
			// report the failing column's global index. The matrix is left
			// partially factored (unspecified beyond the prefix).
			for k := j0; k < j0+se.K; k++ {
				piv[k] += j0
			}
			return &SingularError{K: j0 + se.K}
		}
		// Replay the micro-panel's swaps on the columns to its left
		// (finished L) and right (not yet updated). Swapping the right
		// part before the trailing update commutes with it: the update
		// multipliers move with their rows. Empty sides stay nil views —
		// Sub at the past-the-end column would slice beyond a tight
		// backing array.
		var left, right View
		if j0 > 0 {
			left = a.Sub(0, m, 0, j0)
		}
		if j0+w < n {
			right = a.Sub(0, m, j0+w, n)
		}
		for k := j0; k < j0+w; k++ {
			piv[k] += j0
			if p := piv[k]; p != k {
				swapRows(left, k, p)
				swapRows(right, k, p)
			}
		}
		if j0+w < n {
			// U rows of the trailing columns: forward substitution with the
			// w x w unit lower triangle — the same multiply/subtract
			// sequence Getf2's rank-1 steps apply to rows j0..j0+w.
			l11 := a.Sub(j0, j0+w, j0, j0+w)
			u12 := a.Sub(j0, j0+w, j0+w, n)
			trsmLowerLeftUnitNaive(l11, u12)
			if j0+w < m {
				// Rank-w trailing update through the register-tiled sweep.
				panelUpdate(a.Sub(j0+w, m, j0+w, n), a.Sub(j0+w, m, j0, j0+w), u12)
			}
		}
	}
	return nil
}

// getf2Micro factors the m x w micro-panel (w = a.Cols <= pmr <= m) in
// place, unblocked right-looking like Getf2 but with an unrolled
// two-pass pivot search and 4-way unrolled scale/update loops. piv
// receives w local pivot rows. On a zero pivot column it returns a
// *SingularError with the local prefix length.
func getf2Micro(a View, piv []int) error {
	m, w := a.Rows, a.Cols
	for k := 0; k < w; k++ {
		col := a.Data[k*a.Stride:]
		p, vmax := idamaxRange(col, k, m)
		piv[k] = p
		if vmax == 0 {
			return &SingularError{K: k}
		}
		if p != k {
			swapRows(a, k, p)
		}
		inv := 1 / col[k]
		scaleVec(col[k+1:m], inv)
		for j := k + 1; j < w; j++ {
			cj := a.Data[j*a.Stride:]
			rank1Sub(cj[k+1:m], col[k+1:m], cj[k])
		}
	}
	return nil
}

// idamaxRange returns the index of the first occurrence of the maximum
// |col[i]| over i in [k, m), and that maximum. Overridden with an AVX2
// VMAXPD+mask variant on amd64 (idamax_amd64.go) that preserves the
// same first-max/NaN semantics exactly.
var idamaxRange = idamaxRangeGeneric

// idamaxRangeGeneric is the portable two-pass search — an unrolled max
// reduction, then a scan for its first hit — which keeps the hot pass
// branch-light while reproducing exactly the first-strict-max semantics
// of the scalar scan in Getf2 (NaNs lose every comparison in both
// formulations).
func idamaxRangeGeneric(col []float64, k, m int) (int, float64) {
	vmax := math.Abs(col[k])
	i := k + 1
	// Strict > comparisons (not math.Max) so NaNs lose every contest,
	// exactly as in the scalar scan.
	var m0, m1, m2, m3 float64
	for ; i+4 <= m; i += 4 {
		if v := math.Abs(col[i]); v > m0 {
			m0 = v
		}
		if v := math.Abs(col[i+1]); v > m1 {
			m1 = v
		}
		if v := math.Abs(col[i+2]); v > m2 {
			m2 = v
		}
		if v := math.Abs(col[i+3]); v > m3 {
			m3 = v
		}
	}
	for ; i < m; i++ {
		if v := math.Abs(col[i]); v > m0 {
			m0 = v
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	if m0 > vmax {
		for i = k + 1; i < m; i++ {
			if math.Abs(col[i]) == m0 {
				return i, m0
			}
		}
	}
	return k, vmax
}

// scaleVec multiplies col by alpha elementwise — the L-column scaling
// of the micro-panel. Overridden with an AVX2 variant on amd64.
var scaleVec = scaleVecGeneric

func scaleVecGeneric(col []float64, alpha float64) {
	i := 0
	for ; i+4 <= len(col); i += 4 {
		col[i] *= alpha
		col[i+1] *= alpha
		col[i+2] *= alpha
		col[i+3] *= alpha
	}
	for ; i < len(col); i++ {
		col[i] *= alpha
	}
}

// rank1Sub applies c[i] -= l[i]*u — one rank-1 column of the
// micro-panel's trailing update, with the same multiply-then-subtract
// rounding as Getf2's inner loop. The float64 conversion rounds the
// product before the subtract: the Go spec lets a compiler fuse x*y into
// a following +/- (arm64 does, into FMSUBD) unless the product is
// converted explicitly. Overridden with an AVX2 variant on amd64.
var rank1Sub = rank1SubGeneric

func rank1SubGeneric(c, l []float64, u float64) {
	i := 0
	for ; i+4 <= len(c); i += 4 {
		c[i] -= float64(l[i] * u)
		c[i+1] -= float64(l[i+1] * u)
		c[i+2] -= float64(l[i+2] * u)
		c[i+3] -= float64(l[i+3] * u)
	}
	for ; i < len(c); i++ {
		c[i] -= float64(l[i] * u)
	}
}

// panelUpdate computes C -= A*B where A is m x w, B w x n, C m x n and
// w <= pmr, applying the w rank-1 steps to each element sequentially in
// ascending k order (never as an accumulated dot product), which keeps
// the blocked factorization bit-identical to Getf2. A and B are packed
// into the GEMM workspace formats so the register-tiled panel kernel
// streams pmr x pnr tiles of C with unit stride. The panel tile is
// fixed per platform (see tuning.go) and independent of the GEMM tile,
// so the bit-identity contract never depends on the profile.
func panelUpdate(c, a, b View) {
	m, n, w := c.Rows, c.Cols, a.Cols
	ws := getWorkspace()
	defer putWorkspace(ws)
	for jc := 0; jc < n; jc += nc {
		ncLen := min(nc, n-jc)
		packB(ws.bp, b, 0, jc, w, ncLen, false, pnr)
		for ic := 0; ic < m; ic += mc {
			mcLen := min(mc, m-ic)
			packA(ws.ap, a, ic, 0, mcLen, w, pmr)
			panelMacro(c, ws, ic, jc, mcLen, ncLen, w)
		}
	}
}

// panelMacro sweeps pmr x pnr register tiles of C over one packed
// (A, B) block pair. Interior tiles go straight to the panel kernel;
// edge tiles are staged through the workspace's dense scratch tile
// (ldc = pmr) so the kernel never branches on shape — padded packed
// lanes contribute exact zero updates and are masked at write-back.
func panelMacro(c View, ws *workspace, ic, jc, mcLen, ncLen, w int) {
	scratch := &ws.tile
	for jr := 0; jr < ncLen; jr += pnr {
		nrLen := min(pnr, ncLen-jr)
		bp := ws.bp[(jr/pnr)*w*pnr:]
		for ir := 0; ir < mcLen; ir += pmr {
			mrLen := min(pmr, mcLen-ir)
			ap := ws.ap[(ir/pmr)*w*pmr:]
			if mrLen == pmr && nrLen == pnr {
				off := (jc+jr)*c.Stride + ic + ir
				panelKernel(w, ap, bp, c.Data[off:], c.Stride)
				continue
			}
			for j := 0; j < nrLen; j++ {
				off := (jc+jr+j)*c.Stride + ic + ir
				copy(scratch[j*pmr:j*pmr+mrLen], c.Data[off:off+mrLen])
			}
			panelKernel(w, ap, bp, scratch[:], pmr)
			for j := 0; j < nrLen; j++ {
				off := (jc+jr+j)*c.Stride + ic + ir
				copy(c.Data[off:off+mrLen], scratch[j*pmr:j*pmr+mrLen])
			}
		}
	}
}
