package kernel

// The AVX2 tile kernel of the unit-lower forward solve (task U's
// diagonal systems, trsm.go) works on 8 rows x 4 right-hand-side
// columns held transposed in eight YMM registers — one row per
// register — so the solve's multipliers are broadcasts from the packed
// triangle and its vectors whole registers. Like the panel kernel it
// uses VMULPD+VSUBPD, never FMA: the result must stay bit-identical to
// the scalar loops.

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
