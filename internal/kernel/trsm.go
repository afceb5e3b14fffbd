package kernel

import "fmt"

// The triangular solves are blocked: the triangle is carved into
// trsmBlock-wide diagonal systems solved by the naive kernels, and all
// off-diagonal mass becomes rank-trsmBlock GEMM updates that ride the
// packed path. The naive variants are retained both as the diagonal
// micro-solvers and as the property-test oracles.
//
// The diagonal systems are vectorized without moving a bit. The
// non-unit left solves run down B's columns with the panel layer's
// rank1Sub/scaleVec (getrf.go), which round the multiply and the
// subtract separately, like the scalar loops they replaced. The two
// right-side solves — task L's and the Cholesky panel's — share one
// column sweep (trsmRightSweep) that keeps a block of rows of the
// column being solved in registers while every solved column to its
// left is subtracted in turn. The unit-lower forward solve, task U's
// kernel, has vectors shorter than its triangle and gets a tile kernel
// of its own (trsmLowerLeftUnitDiag). Every element sees exactly the
// scalar loops' operation sequence (they are kept as oracles in
// trsm_test.go); only the sign and payload of a NaN may differ, never
// where it lands.

// TrsmLowerLeftUnit solves L*X = B in place (B <- L^{-1} B), where L is
// unit lower triangular n x n and B is n x m. This is the "task U"
// kernel: U_KJ = L_KK^{-1} A_KJ.
func TrsmLowerLeftUnit(l, b View) {
	n, m := b.Rows, b.Cols
	if l.Rows != n || l.Cols != n {
		panic(fmt.Sprintf("kernel: trsmL shape mismatch L %dx%d, B %dx%d", l.Rows, l.Cols, n, m))
	}
	for k0 := 0; k0 < n; k0 += trsmBlock {
		k1 := min(k0+trsmBlock, n)
		x1 := b.Sub(k0, k1, 0, m)
		trsmLowerLeftUnitDiag(l.Sub(k0, k1, k0, k1), x1)
		if k1 < n {
			// B2 -= L21 * X1.
			Gemm(b.Sub(k1, n, 0, m), l.Sub(k1, n, k0, k1), x1)
		}
	}
}

// TrsmLowerLeftUnitNaive is the unblocked reference forward solve.
func TrsmLowerLeftUnitNaive(l, b View) {
	n, m := b.Rows, b.Cols
	if l.Rows != n || l.Cols != n {
		panic(fmt.Sprintf("kernel: trsmL shape mismatch L %dx%d, B %dx%d", l.Rows, l.Cols, n, m))
	}
	trsmLowerLeftUnitNaive(l, b)
}

// trsmLowerLeftUnitNaive is the micro-solver of the blocked forward
// solve and of the micro-panel U-row solve inside Getrf, so it shares
// the panel layer's rounding contract.
func trsmLowerLeftUnitNaive(l, b View) {
	n, m := b.Rows, b.Cols
	for j := 0; j < m; j++ {
		bj := b.Data[j*b.Stride : j*b.Stride+n]
		for k := 0; k < n; k++ {
			// No skip on zero b(k,j): the subtraction must stay IEEE-exact
			// so Inf/NaN in L propagate (see gemmNaive).
			bkj := bj[k]
			lk := l.Data[k*l.Stride:]
			for i := k + 1; i < n; i++ {
				bj[i] -= float64(lk[i] * bkj)
			}
		}
	}
}

// trsmLowerUnitTile solves rows kprev..kprev+7 of a trsmTileCols-wide
// strip of right-hand sides, given the rows above already solved:
//
//	row_i -= lp[k*8+i] * xp[k*4 .. k*4+3]      for k < kprev, in order
//	row_i -= lp[(kprev+t)*8+i] * row_t         for t = 0..6, i > t
//
// with row_i the tile's row i (column-major at c, leading dimension
// ldc), every multiply and subtract rounded separately. The solved
// rows are appended to xp. Nil where no vector kernel exists
// (trsmkernel_amd64.go installs the AVX2 one).
var trsmLowerUnitTile func(kprev int, lp, xp, c []float64, ldc int)

// The tile kernel's fixed shape, and the scratch one diagonal system
// needs (workspace.go): the triangle packed per 8-row block, one strip
// of solved rows, one staged edge strip.
const (
	trsmTileRows = 8
	trsmTileCols = 4
)

type trsmScratch struct {
	lp   [trsmBlock * (trsmBlock + trsmTileRows) / 2]float64
	xp   [trsmBlock * trsmTileCols]float64
	edge [trsmBlock * trsmTileCols]float64
}

// trsmLowerLeftUnitDiag solves one diagonal system (n <= trsmBlock) of
// the blocked forward solve. The plain loops run down each column of B
// with vectors shorter than the triangle and a dependency chain from
// one step to the next; the tile kernel instead takes the triangle
// packed in 8-row blocks and sweeps each 4-column strip of B top to
// bottom, a block of rows at a time. Every element still sees the plain
// loops' multiply/subtract sequence in the same k order, so the bits
// are theirs. Ragged strips and row blocks are staged through a zero-
// padded scratch strip.
func trsmLowerLeftUnitDiag(l, b View) {
	n, m := b.Rows, b.Cols
	if trsmLowerUnitTile == nil || n <= trsmTileRows || n > trsmBlock || m < trsmTileCols {
		trsmLowerLeftUnitNaive(l, b)
		return
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	// lp: per row block r0, columns 0..r0+7 of L's rows r0..r0+7, eight
	// row entries per column. Only the strictly lower entries are copied
	// — rows max(r0, k+1) up to n of column k — and the rest stay zero:
	// the kernel never reads them, and a caller may be rewriting them
	// concurrently (the incremental-pivoting baseline's TSTRF updates
	// the diagonal tile's U while GESSM solves with its unit L).
	lp, xp, edge := ws.trsm.lp[:], ws.trsm.xp[:], ws.trsm.edge[:]
	var lpOff [trsmBlock / trsmTileRows]int
	off := 0
	for r0 := 0; r0 < n; r0 += trsmTileRows {
		lpOff[r0/trsmTileRows] = off
		r1 := min(r0+trsmTileRows, n)
		for k := 0; k < r0+trsmTileRows; k++ {
			col := lp[off : off+trsmTileRows]
			clear(col)
			if i0 := max(r0, k+1); i0 < r1 {
				copy(col[i0-r0:r1-r0], l.Data[k*l.Stride+i0:])
			}
			off += trsmTileRows
		}
	}
	for j0 := 0; j0 < m; j0 += trsmTileCols {
		c, ldc := b.Data[j0*b.Stride:], b.Stride
		cols := min(trsmTileCols, m-j0)
		staged := cols < trsmTileCols || n%trsmTileRows != 0
		if staged {
			clear(edge)
			for j := 0; j < cols; j++ {
				copy(edge[j*trsmBlock:j*trsmBlock+n], c[j*ldc:])
			}
			c, ldc = edge, trsmBlock
		}
		for r0 := 0; r0 < n; r0 += trsmTileRows {
			trsmLowerUnitTile(r0, lp[lpOff[r0/trsmTileRows]:], xp, c[r0:], ldc)
		}
		if staged {
			for j := 0; j < cols; j++ {
				copy(b.Data[(j0+j)*b.Stride:(j0+j)*b.Stride+n], edge[j*trsmBlock:])
			}
		}
	}
}

// TrsmLowerLeft solves L*X = B in place (B <- L^{-1} B), where L is
// non-unit lower triangular n x n and B is n x m — the diagonal task of
// the blocked forward solve sweep with a Cholesky factor (whose L
// carries a real diagonal, unlike LU's unit L).
func TrsmLowerLeft(l, b View) {
	n, m := b.Rows, b.Cols
	if l.Rows != n || l.Cols != n {
		panic(fmt.Sprintf("kernel: trsmLL shape mismatch L %dx%d, B %dx%d", l.Rows, l.Cols, n, m))
	}
	if n <= trsmBlock {
		trsmLowerLeftNaive(l, b)
		return
	}
	for k0 := 0; k0 < n; k0 += trsmBlock {
		k1 := min(k0+trsmBlock, n)
		trsmLowerLeftNaive(l.Sub(k0, k1, k0, k1), b.Sub(k0, k1, 0, m))
		if k1 < n {
			// B2 -= L21 * X1.
			Gemm(b.Sub(k1, n, 0, m), l.Sub(k1, n, k0, k1), b.Sub(k0, k1, 0, m))
		}
	}
}

// TrsmLowerLeftNaive is the unblocked reference non-unit forward solve.
func TrsmLowerLeftNaive(l, b View) {
	n, m := b.Rows, b.Cols
	if l.Rows != n || l.Cols != n {
		panic(fmt.Sprintf("kernel: trsmLL shape mismatch L %dx%d, B %dx%d", l.Rows, l.Cols, n, m))
	}
	trsmLowerLeftNaive(l, b)
}

func trsmLowerLeftNaive(l, b View) {
	n, m := b.Rows, b.Cols
	for j := 0; j < m; j++ {
		bj := b.Data[j*b.Stride : j*b.Stride+n]
		for k := 0; k < n; k++ {
			lkk := l.Data[k*l.Stride+k]
			if lkk == 0 {
				panic("kernel: trsmLL singular diagonal")
			}
			bkj := bj[k] / lkk
			bj[k] = bkj
			rank1Sub(bj[k+1:], l.Data[k*l.Stride+k+1:k*l.Stride+n], bkj)
		}
	}
}

// TrsmUpperLeft solves U*X = B in place (B <- U^{-1} B), where U is
// upper triangular (non-unit) n x n and B is n x m — the diagonal task
// of the blocked backward solve sweep. Diagonal systems are carved
// bottom-up so the off-diagonal mass rides Gemm.
func TrsmUpperLeft(u, b View) {
	n, m := b.Rows, b.Cols
	if u.Rows != n || u.Cols != n {
		panic(fmt.Sprintf("kernel: trsmUL shape mismatch U %dx%d, B %dx%d", u.Rows, u.Cols, n, m))
	}
	if n <= trsmBlock {
		trsmUpperLeftNaive(u, b)
		return
	}
	for k1 := n; k1 > 0; k1 -= trsmBlock {
		k0 := max(k1-trsmBlock, 0)
		trsmUpperLeftNaive(u.Sub(k0, k1, k0, k1), b.Sub(k0, k1, 0, m))
		if k0 > 0 {
			// B0 -= U01 * X1.
			Gemm(b.Sub(0, k0, 0, m), u.Sub(0, k0, k0, k1), b.Sub(k0, k1, 0, m))
		}
	}
}

// TrsmUpperLeftNaive is the unblocked reference backward solve.
func TrsmUpperLeftNaive(u, b View) {
	n, m := b.Rows, b.Cols
	if u.Rows != n || u.Cols != n {
		panic(fmt.Sprintf("kernel: trsmUL shape mismatch U %dx%d, B %dx%d", u.Rows, u.Cols, n, m))
	}
	trsmUpperLeftNaive(u, b)
}

func trsmUpperLeftNaive(u, b View) {
	n, m := b.Rows, b.Cols
	for j := 0; j < m; j++ {
		bj := b.Data[j*b.Stride : j*b.Stride+n]
		for k := n - 1; k >= 0; k-- {
			ukk := u.Data[k*u.Stride+k]
			if ukk == 0 {
				panic("kernel: trsmUL singular diagonal")
			}
			bkj := bj[k] / ukk
			bj[k] = bkj
			rank1Sub(bj[:k], u.Data[k*u.Stride:k*u.Stride+k], bkj)
		}
	}
}

// TrsmUpperRight solves X*U = B in place (B <- B U^{-1}), where U is
// upper triangular (non-unit) n x n and B is m x n. This is the
// "task L" kernel: L_IK = A_IK U_KK^{-1}.
func TrsmUpperRight(u, b View) {
	m, n := b.Rows, b.Cols
	if u.Rows != n || u.Cols != n {
		panic(fmt.Sprintf("kernel: trsmU shape mismatch U %dx%d, B %dx%d", u.Rows, u.Cols, m, n))
	}
	if n <= trsmBlock {
		trsmUpperRightNaive(u, b)
		return
	}
	for j0 := 0; j0 < n; j0 += trsmBlock {
		j1 := min(j0+trsmBlock, n)
		trsmUpperRightNaive(u.Sub(j0, j1, j0, j1), b.Sub(0, m, j0, j1))
		if j1 < n {
			// B2 -= X1 * U12.
			Gemm(b.Sub(0, m, j1, n), b.Sub(0, m, j0, j1), u.Sub(j0, j1, j1, n))
		}
	}
}

// trsmUpperRightNaive is the unblocked right solve: column j of B is
// swept with U's column j above the diagonal, u_kj = u[j*ldu+k].
func trsmUpperRightNaive(u, b View) {
	m, n := b.Rows, b.Cols
	for j := 0; j < n; j++ {
		ujj := u.Data[j*u.Stride+j]
		if ujj == 0 {
			panic("kernel: trsmU singular diagonal")
		}
		trsmRightSweep(m, j, u.Data[j*u.Stride:], 1, 1/ujj, b.Data, b.Stride)
	}
}

// trsmRightSweep solves column j of a right-side triangular system
// whose columns 0..j-1 are already solved:
//
//	b_j[i] = (b_j[i] - x_0[i]*c_0 - x_1[i]*c_1 - ... - x_{j-1}[i]*c_{j-1}) * inv
//
// for rows i < m, with x_k = b[k*ldb : k*ldb+m] and c_k = coef[k*cs]:
// the k terms are subtracted in ascending order, every multiply and
// subtract rounded separately, which is the scalar loop's sequence for
// each element. The portable form keeps four rows in registers per
// pass; trsmkernel_amd64.go installs an AVX2 sweep over 32 rows.
var trsmRightSweep = trsmRightSweepGeneric

func trsmRightSweepGeneric(m, j int, coef []float64, cs int, inv float64, b []float64, ldb int) {
	bj := b[j*ldb : j*ldb+m]
	i := 0
	for ; i+4 <= m; i += 4 {
		s0, s1, s2, s3 := bj[i], bj[i+1], bj[i+2], bj[i+3]
		for k := 0; k < j; k++ {
			c, x := coef[k*cs], b[k*ldb+i:k*ldb+i+4]
			s0 -= float64(x[0] * c)
			s1 -= float64(x[1] * c)
			s2 -= float64(x[2] * c)
			s3 -= float64(x[3] * c)
		}
		bj[i], bj[i+1], bj[i+2], bj[i+3] = s0*inv, s1*inv, s2*inv, s3*inv
	}
	for ; i < m; i++ {
		s := bj[i]
		for k := 0; k < j; k++ {
			s -= float64(b[k*ldb+i] * coef[k*cs])
		}
		bj[i] = s * inv
	}
}

// TrsmRightLowerTrans solves X * Lᵀ = B in place (B <- B L^{-T}), with
// L lower triangular non-unit n x n and B m x n — the TRSM variant of
// the tiled Cholesky panel. Off-diagonal updates ride GemmNT.
func TrsmRightLowerTrans(l, b View) {
	m, n := b.Rows, b.Cols
	if l.Rows != n || l.Cols != n {
		panic(fmt.Sprintf("kernel: trsmRLT shape mismatch L %dx%d, B %dx%d", l.Rows, l.Cols, m, n))
	}
	if n <= trsmBlock {
		trsmRightLowerTransNaive(l, b)
		return
	}
	for j0 := 0; j0 < n; j0 += trsmBlock {
		j1 := min(j0+trsmBlock, n)
		trsmRightLowerTransNaive(l.Sub(j0, j1, j0, j1), b.Sub(0, m, j0, j1))
		if j1 < n {
			// B2 -= X1 * L21ᵀ, with L21 = L(j1:n, j0:j1).
			GemmNT(b.Sub(0, m, j1, n), b.Sub(0, m, j0, j1), l.Sub(j1, n, j0, j1))
		}
	}
}

// trsmRightLowerTransNaive is the unblocked solve: column j of B is
// swept with L's row j left of the diagonal, l_jk = l[k*ldl+j], read
// with stride ldl.
func trsmRightLowerTransNaive(l, b View) {
	m, n := b.Rows, b.Cols
	for j := 0; j < n; j++ {
		ljj := l.Data[j*l.Stride+j]
		if ljj == 0 {
			panic("kernel: trsmRLT singular diagonal")
		}
		trsmRightSweep(m, j, l.Data[j:], l.Stride, 1/ljj, b.Data, b.Stride)
	}
}
