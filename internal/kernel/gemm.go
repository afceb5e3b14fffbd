package kernel

import "fmt"

// Gemm computes C -= A * B (the only gemm variant dense LU needs:
// alpha=-1, beta=1), with A m x k, B k x n, C m x n.
//
// Large products take the packed register-tiled path (pack.go,
// microkernel*.go); products below the gemmPackedMinFlops crossover,
// which can never amortize the packing traffic, take the direct
// register-tiled small path (smallgemm.go). All paths are
// exact-arithmetic equivalents up to floating-point reassociation;
// GemmNaive is retained as the correctness oracle.
func Gemm(c, a, b View) { GemmShared(c, a, b, nil) }

// GemmTiles computes C -= A * B with the bits of one Gemm call per tile
// of the grid that rowEnds and colEnds cut C into (ascending tile ends,
// the last one C's extent), so one task can run the update of many
// blocks with the arithmetic each block's own task would. Element by
// element, the packed path's result does not depend on where a tile
// sits in the product, so when every tile would take it the grid is
// one packed product, which packs each A slab once per mc block instead
// of once per tile column. Otherwise each tile is dispatched as Gemm
// would: a tile under the packed crossover must run the small path.
func GemmTiles(c, a, b View, rowEnds, colEnds []int) {
	k := a.Cols
	if packedWorthwhile(smallestTile(rowEnds), smallestTile(colEnds), k) {
		Gemm(c, a, b)
		return
	}
	r0 := 0
	for _, r1 := range rowEnds {
		c0 := 0
		for _, c1 := range colEnds {
			GemmShared(c.Sub(r0, r1, c0, c1), a.Sub(r0, r1, 0, k), b.Sub(0, k, c0, c1), nil)
			c0 = c1
		}
		r0 = r1
	}
}

// smallestTile returns the least extent of a list of tile ends.
func smallestTile(ends []int) int {
	v := ends[0]
	for i := 1; i < len(ends); i++ {
		v = min(v, ends[i]-ends[i-1])
	}
	return v
}

// GemmNT computes C -= A * Bᵀ with A m x k, B n x k, C m x n — the
// symmetric-update kernel of tiled Cholesky (SYRK/GEMM applied to the
// lower triangle blockwise). It shares Gemm's dispatch and packed path;
// only the B packing reads transposed.
func GemmNT(c, a, b View) { gemm(c, a, b, true, nil) }

// gemm is the one dispatcher of GemmShared and GemmNT: C -= A * B, or
// A * Bᵀ when bTrans, after a shape check, through the small path below
// the packed crossover and the packed path otherwise, B streamed from
// pb's shared packed copy when there is a handle. A non-nil handle
// loses one use whichever path runs.
func gemm(c, a, b View, bTrans bool, pb *SharedPanel) {
	m, n, k := c.Rows, c.Cols, a.Cols
	bk, bn := b.Rows, b.Cols
	if bTrans {
		bk, bn = bn, bk
	}
	if a.Rows != m || bk != k || bn != n {
		panic(fmt.Sprintf("kernel: gemm shape mismatch C %dx%d, A %dx%d, B %dx%d (transposed %v)",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols, bTrans))
	}
	defer pb.release()
	if !packedWorthwhile(m, n, k) {
		gemmSmall(c, a, b, bTrans)
		return
	}
	gemmPacked(c, a, b, bTrans, pb.packed(b), mr, nr, microKernel)
}

// gemmPacked is the three-level blocked driver: jc/pc/ic loops carve
// C -= A*B (or A*Bᵀ when bTrans) into mc x nc tiles updated through
// packed kc-deep slivers, and the macro-kernel walks tmr x tnr register
// tiles over the packed buffers with kern — the GEMM's micro-kernel at
// mr x nr, or the GETRF panel kernel at pmr x pnr (panelUpdate). B is
// streamed from pb when it holds a packed shared panel (panelcache.go,
// GEMM tile only); a nil panel means B is packed into the private
// workspace here. The loop nest and the packed bytes are the same
// either way.
func gemmPacked(c, a, b View, bTrans bool, pb *SharedPanel, tmr, tnr int, kern tileKernel) {
	m, n, k := c.Rows, c.Cols, a.Cols
	ws := getWorkspace()
	defer putWorkspace(ws)
	for jc := 0; jc < n; jc += nc {
		ncLen := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcLen := min(kc, k-pc)
			bp := ws.bp
			if pb != nil {
				bp = pb.seg(jc, pc)
			} else {
				packB(bp, b, pc, jc, kcLen, ncLen, bTrans, tnr)
			}
			for ic := 0; ic < m; ic += mc {
				mcLen := min(mc, m-ic)
				packA(ws.ap, a, ic, pc, mcLen, kcLen, tmr)
				macroKernel(c, ws, bp, ic, jc, mcLen, ncLen, kcLen, tmr, tnr, kern)
			}
		}
	}
}

// macroKernel sweeps tmr x tnr register tiles over one packed (A, B)
// block pair with kern. Full tiles are updated in place by the kernel's
// fused write-back; edge tiles are staged through the workspace's dense
// scratch tile (ldc = tmr) so the kernel never branches on shape —
// padded packed lanes produce results that are simply not copied back.
// The packed B is passed explicitly so the shared-panel path
// (panelcache.go) can stream it from a cached buffer.
func macroKernel(c View, ws *workspace, bp []float64, ic, jc, mcLen, ncLen, kcLen, tmr, tnr int, kern tileKernel) {
	for jr := 0; jr < ncLen; jr += tnr {
		nrLen := min(tnr, ncLen-jr)
		bpPanel := bp[(jr/tnr)*kcLen*tnr:]
		for ir := 0; ir < mcLen; ir += tmr {
			mrLen := min(tmr, mcLen-ir)
			apPanel := ws.ap[(ir/tmr)*kcLen*tmr:]
			off := (jc+jr)*c.Stride + ic + ir
			if mrLen == tmr && nrLen == tnr {
				kern(kcLen, apPanel, bpPanel, c.Data[off:], c.Stride)
				continue
			}
			for j := 0; j < nrLen; j++ {
				copy(ws.tile[j*tmr:j*tmr+mrLen], c.Data[off+j*c.Stride:])
			}
			kern(kcLen, apPanel, bpPanel, ws.tile[:], tmr)
			for j := 0; j < nrLen; j++ {
				copy(c.Data[off+j*c.Stride:], ws.tile[j*tmr:j*tmr+mrLen])
			}
		}
	}
}

// GemmNaive is the reference implementation of Gemm: a j-k-i loop nest
// whose inner loop runs down the unit-stride direction of C and A. It
// is the oracle the property tests pin the packed path against, and
// the small-product fast path.
func GemmNaive(c, a, b View) {
	m, n, k := c.Rows, c.Cols, a.Cols
	if a.Rows != m || b.Rows != k || b.Cols != n {
		panic(fmt.Sprintf("kernel: gemm shape mismatch C %dx%d, A %dx%d, B %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	gemmNaive(c, a, b)
}

// blockK is the k-dimension blocking factor of the naive path. 64
// columns of 8-byte elements keep the streamed A panel inside L1/L2.
const blockK = 64

func gemmNaive(c, a, b View) {
	m, n, k := c.Rows, c.Cols, a.Cols
	for k0 := 0; k0 < k; k0 += blockK {
		k1 := min(k0+blockK, k)
		for j := 0; j < n; j++ {
			cj := c.Data[j*c.Stride : j*c.Stride+m]
			for l := k0; l < k1; l++ {
				// No skip on zero b(l,j): x - 0*y must stay IEEE-exact, and
				// skipping the multiply would mask Inf/NaN in A that the
				// noise-injection experiments rely on seeing propagate.
				al := a.Data[l*a.Stride : l*a.Stride+m]
				axpy(cj, al, -b.Data[j*b.Stride+l])
			}
		}
	}
}

// axpy computes y += alpha*x with 4-way unrolling.
func axpy(y, x []float64, alpha float64) {
	n := len(y)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}
