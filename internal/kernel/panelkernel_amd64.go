package kernel

// The AVX2 panel kernel updates an 8x4 tile of C in registers: eight
// 256-bit accumulators hold the tile, and each of the w rank-1 steps is
// two packed-A vector loads, four B broadcasts and eight separate
// VMULPD+VSUBPD pairs. FMA is deliberately NOT used: fusing the
// multiply and subtract into one rounding would break the bit-identity
// of the blocked GETRF with scalar Getf2 (the Go compiler performs no
// such fusing on amd64), and the panel sweep's speedup comes from
// register reuse and packing, not from the fused op.

//go:noescape
func panelKernel8x4(w int, ap, bp, c *float64, ldc int)

//go:noescape
func rank1SubAVX2(n int, c, l *float64, u float64)

//go:noescape
func scaleVecAVX2(n int, c *float64, alpha float64)

// rank1SubVec adapts the assembly rank-1 column update. The vector
// body and its scalar tail both round multiply and subtract
// separately, matching the portable loop bit for bit.
func rank1SubVec(c, l []float64, u float64) {
	if len(c) == 0 {
		return
	}
	rank1SubAVX2(len(c), &c[0], &l[0], u)
}

// scaleVecVec adapts the assembly column scaling.
func scaleVecVec(col []float64, alpha float64) {
	if len(col) == 0 {
		return
	}
	scaleVecAVX2(len(col), &col[0], alpha)
}

// panelAVX2 adapts the assembly kernel to the panelKernel signature.
func panelAVX2(w int, ap, bp, c []float64, ldc int) {
	if w == 0 {
		return
	}
	panelKernel8x4(w, &ap[0], &bp[0], &c[0], ldc)
}
