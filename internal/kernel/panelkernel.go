package kernel

// panelKernel applies w sequential rank-1 updates to one pmr x pnr tile
// of C: for l = 0..w-1 in order, C[i,j] -= ap[l*pmr+i] * bp[l*pnr+j],
// each step rounded separately (multiply, then subtract — never a fused
// accumulate), so the blocked GETRF stays bit-identical to scalar
// Getf2. ap/bp are one packed A row panel and one packed B column panel
// in the GEMM packing formats (pack.go); c is the tile origin inside a
// column-major matrix with leading dimension ldc. The platform
// registration swaps in wider implementations together with pmr/pnr
// (microkernel_amd64.go); the GEMM profile never touches this tile.
var panelKernel = panelKernelGeneric

// panelKernelGeneric is the portable pmr x pnr implementation: one
// columnful of the tile is updated per (l, j) step with the same
// multiply/subtract loop the micro-panel factorization uses. The
// float64 conversion keeps the compiler from fusing the product into
// the subtract (see rank1Sub).
func panelKernelGeneric(w int, ap, bp, c []float64, ldc int) {
	for l := 0; l < w; l++ {
		al := ap[l*pmr : l*pmr+pmr]
		bl := bp[l*pnr : l*pnr+pnr]
		for j := 0; j < pnr; j++ {
			u := bl[j]
			cj := c[j*ldc : j*ldc+pmr]
			for i := range cj {
				cj[i] -= float64(al[i] * u)
			}
		}
	}
}
