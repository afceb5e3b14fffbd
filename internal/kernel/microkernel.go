package kernel

// micro4x4 is the portable register-tile micro-kernel: the 4x4 product
// of one packed A row panel and one packed B column panel (see pack.go)
// is accumulated in sixteen scalar variables over kk packed k-steps and
// then subtracted from the tile of C at c (column-major, leading
// dimension ldc) — the write-back contract every registered kernel
// follows (tuning.go, microKernel).
func micro4x4(kk int, ap, bp, c []float64, ldc int) {
	var c00, c10, c20, c30 float64
	var c01, c11, c21, c31 float64
	var c02, c12, c22, c32 float64
	var c03, c13, c23, c33 float64
	for l := 0; l < kk; l++ {
		o := l * 4
		a := ap[o : o+4 : o+4]
		b := bp[o : o+4 : o+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
	}
	t := c[0:4:4]
	t[0], t[1], t[2], t[3] = t[0]-c00, t[1]-c10, t[2]-c20, t[3]-c30
	t = c[ldc : ldc+4 : ldc+4]
	t[0], t[1], t[2], t[3] = t[0]-c01, t[1]-c11, t[2]-c21, t[3]-c31
	t = c[2*ldc : 2*ldc+4 : 2*ldc+4]
	t[0], t[1], t[2], t[3] = t[0]-c02, t[1]-c12, t[2]-c22, t[3]-c32
	t = c[3*ldc : 3*ldc+4 : 3*ldc+4]
	t[0], t[1], t[2], t[3] = t[0]-c03, t[1]-c13, t[2]-c23, t[3]-c33
}
