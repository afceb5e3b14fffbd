package kernel

// The AVX2+FMA micro-kernels compute 8-row register tiles:
//
//   - 8x4: eight 256-bit accumulators (two YMM registers per C column),
//     two packed-A vector loads and four B broadcasts per k-step —
//     8 FMAs, i.e. 64 flops, per iteration.
//   - 8x6: twelve accumulators over six C columns — 12 FMAs, 96 flops,
//     per iteration, with a better FMA-to-load ratio (12:8 vs 8:6) that
//     keeps both FMA ports fed on cores where the 8x4 tile stalls on
//     broadcast traffic. It uses all sixteen YMM registers.
//
// Scalar Go code cannot reach either shape (the compiler has no
// auto-vectorizer and at most ~2 flops/cycle).
//
// Both end by subtracting the accumulators from the C tile in
// registers (load, VSUBPD, store), so the product never round-trips
// through a scratch tile and a scalar write-back loop.
//
// Selection: if the CPU lacks AVX2, FMA or OS AVX state support, the
// portable 4x4 kernel stays active and the packed formats shrink with
// it. Otherwise init installs 8x4 as the static default (the pre-tuner
// behaviour, and what HSD_TUNE=off pins) and registers both vector
// kernels for the autotuner to bench against each other (tuner.go).

//go:noescape
func microKernel8x4FMA(kk int, ap, bp, c *float64, ldc int)

//go:noescape
func microKernel8x6FMA(kk int, ap, bp, c *float64, ldc int)

// cpuSupportsAVX2FMA reports AVX2+FMA with OS-enabled YMM state
// (CPUID leaves 1 and 7 plus XGETBV), implemented in assembly to avoid
// depending on x/sys/cpu.
func cpuSupportsAVX2FMA() bool

func init() {
	if cpuSupportsAVX2FMA() {
		mr, nr = 8, 4
		microKernel = microAVX2
		microImpls["avx2-8x4"] = microImpl{name: "avx2-8x4", mr: 8, nr: 4, fn: microAVX2}
		microImpls["avx2-8x6"] = microImpl{name: "avx2-8x6", mr: 8, nr: 6, fn: microAVX2x6}
		defaultKernelName = "avx2-8x4"
	}
}

// microAVX2 adapts the 8x4 assembly kernel to the microKernel
// signature. The last-element touch turns a tile that does not fit its
// slice into a bounds panic instead of a stray store.
func microAVX2(kk int, ap, bp, c []float64, ldc int) {
	if kk == 0 {
		return
	}
	_ = c[3*ldc+7]
	microKernel8x4FMA(kk, &ap[0], &bp[0], &c[0], ldc)
}

// microAVX2x6 adapts the 8x6 assembly kernel.
func microAVX2x6(kk int, ap, bp, c []float64, ldc int) {
	if kk == 0 {
		return
	}
	_ = c[5*ldc+7]
	microKernel8x6FMA(kk, &ap[0], &bp[0], &c[0], ldc)
}
