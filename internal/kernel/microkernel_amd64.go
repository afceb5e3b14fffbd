package kernel

// The AVX2+FMA micro-kernel computes an 8x6 register tile: twelve
// 256-bit accumulators over six C columns, two packed-A vector loads and
// six B broadcasts per k-step — 12 FMAs, 96 flops, per iteration — using
// all sixteen YMM registers. Scalar Go code cannot reach that shape (the
// compiler has no auto-vectorizer and at most ~2 flops/cycle).
//
// It ends by subtracting the accumulators from the C tile in registers
// (load, VSUBPD, store), so the product never round-trips through a
// scratch tile and a scalar write-back loop.

//go:noescape
func microKernel8x6FMA(kk int, ap, bp, c *float64, ldc int)

// cpuSupportsAVX2FMA reports AVX2+FMA with OS-enabled YMM state
// (CPUID leaves 1 and 7 plus XGETBV), implemented in assembly to avoid
// depending on x/sys/cpu.
func cpuSupportsAVX2FMA() bool

// registerPlatformKernels installs the AVX2 kernels when the CPU and OS
// support them: the 8x6 GEMM micro-kernel (which the machine profile
// then uses), the 8x4 panel kernel with its vector rank-1 update and
// column scaling, the TRSM tile and right-side column sweep, and the
// pivot search. Without AVX2, FMA or OS AVX state the portable kernels
// stay, and the packed formats shrink with them.
func registerPlatformKernels() {
	if !cpuSupportsAVX2FMA() {
		return
	}
	microImpls["avx2-8x6"] = microImpl{name: "avx2-8x6", mr: 8, nr: 6, fn: microAVX2x6}
	platformKernel = "avx2-8x6"
	pmr, pnr = 8, 4
	panelKernel = panelAVX2
	rank1Sub = rank1SubVec
	scaleVec = scaleVecVec
	trsmLowerUnitTile = trsmTileAVX2
	trsmRightSweep = trsmRightSweepVec
	idamaxRange = idamaxRangeAVX2
}

// microAVX2x6 adapts the 8x6 assembly kernel to the microKernel
// signature. The last-element touch turns a tile that does not fit its
// slice into a bounds panic instead of a stray store.
func microAVX2x6(kk int, ap, bp, c []float64, ldc int) {
	if kk == 0 {
		return
	}
	_ = c[5*ldc+7]
	microKernel8x6FMA(kk, &ap[0], &bp[0], &c[0], ldc)
}
