package kernel

// Two AVX2 kernels serve the diagonal systems of the blocked triangular
// solves (trsm.go). The tile kernel of the unit-lower forward solve
// (task U's diagonal systems) works on 8 rows x 4 right-hand-side
// columns held transposed in eight YMM registers — one row per
// register — so the solve's multipliers are broadcasts from the packed
// triangle and its vectors whole registers. Like the panel kernel it
// uses VMULPD+VSUBPD, never FMA: the result must stay bit-identical to
// the scalar loops. The column sweep of the right-side solves (task L's
// and the Cholesky panel's) keeps 32 rows of the column being solved in
// eight YMM registers while it subtracts each solved column to the left,
// the same VMULPD+VSUBPD pair per step.

//go:noescape
func trsmLowerUnitTile8x4(kprev int, lp, xp, c *float64, ldc int)

// trsmTileAVX2 adapts the assembly kernel to the trsmLowerUnitTile
// signature; the touches turn an undersized slice into a bounds panic.
func trsmTileAVX2(kprev int, lp, xp, c []float64, ldc int) {
	_ = lp[(kprev+trsmTileRows)*trsmTileRows-1]
	_ = xp[(kprev+trsmTileRows)*trsmTileCols-1]
	_ = c[(trsmTileCols-1)*ldc+trsmTileRows-1]
	trsmLowerUnitTile8x4(kprev, &lp[0], &xp[0], &c[0], ldc)
}

//go:noescape
func trsmRightSweepAVX2(m, j int, coef *float64, cs int, inv float64, b *float64, ldb int)

// trsmRightSweepVec adapts the assembly sweep to the trsmRightSweep
// signature; the touches turn an undersized slice into a bounds panic.
func trsmRightSweepVec(m, j int, coef []float64, cs int, inv float64, b []float64, ldb int) {
	if m == 0 {
		return
	}
	_ = coef[max(j-1, 0)*cs]
	_ = b[j*ldb+m-1]
	trsmRightSweepAVX2(m, j, &coef[0], cs, inv, &b[0], ldb)
}
