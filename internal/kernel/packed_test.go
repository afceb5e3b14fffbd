package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// randView builds an r x c view with a random non-trivial stride and
// slack elements before/after every column, so out-of-view writes by a
// kernel corrupt detectable padding.
func randView(rng *rand.Rand, r, c int) View {
	stride := r + rng.Intn(5)
	if stride == 0 {
		stride = 1
	}
	data := make([]float64, c*stride+7)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return View{Rows: r, Cols: c, Stride: stride, Data: data}
}

func cloneView(v View) View {
	d := make([]float64, len(v.Data))
	copy(d, v.Data)
	return View{Rows: v.Rows, Cols: v.Cols, Stride: v.Stride, Data: d}
}

// gemmNTNaive is the reference loop nest of GemmNT.
func gemmNTNaive(c, a, b View) {
	m, n, k := c.Rows, c.Cols, a.Cols
	for j := 0; j < n; j++ {
		cj := c.Data[j*c.Stride : j*c.Stride+m]
		for l := 0; l < k; l++ {
			al := a.Data[l*a.Stride : l*a.Stride+m]
			axpy(cj, al, -b.Data[l*b.Stride+j])
		}
	}
}

// maxAbsDiffBacking compares the FULL backing slices, so padding
// outside the view must match too (catches stray writes).
func maxAbsDiffBacking(a, b View) float64 {
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// relTol is eps relative to the largest magnitude in v, at least eps.
func relTol(eps float64, v View) float64 {
	m := 1.0
	for j := 0; j < v.Cols; j++ {
		for _, x := range v.Data[j*v.Stride : j*v.Stride+v.Rows] {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
	}
	return eps * m
}

func gemmTol(c View) float64 { return relTol(1e-12, c) }

// TestGemmPackedMatchesNaiveProperty drives the packed path directly
// (bypassing the size dispatcher) against the naive oracle over random
// odd shapes and strides.
func TestGemmPackedMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(200)
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(300)
		a := randView(rng, m, k)
		b := randView(rng, k, n)
		c1 := randView(rng, m, n)
		c2 := cloneView(c1)
		gemmPacked(c1, a, b, false, nil, mr, nr, microKernel)
		gemmNaive(c2, a, b)
		return maxAbsDiffBacking(c1, c2) <= gemmTol(c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGemmNTPackedMatchesNaiveProperty is the transposed-B variant.
func TestGemmNTPackedMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(150)
		n := 1 + rng.Intn(150)
		k := 1 + rng.Intn(200)
		a := randView(rng, m, k)
		b := randView(rng, n, k)
		c1 := randView(rng, m, n)
		c2 := cloneView(c1)
		gemmPacked(c1, a, b, true, nil, mr, nr, microKernel)
		gemmNTNaive(c2, a, b)
		return maxAbsDiffBacking(c1, c2) <= gemmTol(c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGemmPackedEdgeSizes pins the packed path on the degenerate and
// register-tile-boundary shapes: 0, 1, mr-1, mr+1, nr-1, nr+1 and the
// cache-blocking boundaries kc±1, mc+1, nc+1.
func TestGemmPackedEdgeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dims := []int{0, 1, mr - 1, mr, mr + 1, nr - 1, nr + 1, 2*mr + 3}
	deep := []int{0, 1, mr - 1, nr + 1, kc - 1, kc, kc + 1}
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range deep {
				a := randView(rng, m, k)
				b := randView(rng, k, n)
				c1 := randView(rng, m, n)
				c2 := cloneView(c1)
				gemmPacked(c1, a, b, false, nil, mr, nr, microKernel)
				gemmNaive(c2, a, b)
				if maxAbsDiffBacking(c1, c2) > gemmTol(c2) {
					t.Fatalf("packed gemm wrong at m=%d n=%d k=%d", m, n, k)
				}
			}
		}
	}
	// Blocking boundaries in m and n (one macro-block plus a sliver).
	for _, dims := range [][3]int{{mc + 1, nr, kc + 1}, {mr, nc + 1, 17}, {mc + mr + 1, nc + nr + 1, kc + 1}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randView(rng, m, k)
		b := randView(rng, k, n)
		c1 := randView(rng, m, n)
		c2 := cloneView(c1)
		gemmPacked(c1, a, b, false, nil, mr, nr, microKernel)
		gemmNaive(c2, a, b)
		if maxAbsDiffBacking(c1, c2) > gemmTol(c2) {
			t.Fatalf("packed gemm wrong at m=%d n=%d k=%d", m, n, k)
		}
	}
}

// TestGemmDispatchCrossover checks the public Gemm entry right around
// the packed/naive crossover, where both paths must agree.
func TestGemmDispatchCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range []int{31, 32, 33, 40} {
		a := randView(rng, s, s)
		b := randView(rng, s, s)
		c1 := randView(rng, s, s)
		c2 := cloneView(c1)
		Gemm(c1, a, b)
		gemmNaive(c2, a, b)
		if maxAbsDiffBacking(c1, c2) > gemmTol(c2) {
			t.Fatalf("dispatcher mismatch at size %d", s)
		}
	}
}

// TestTrsmBlockedMatchesNaive pins the blocked triangular solves to
// their naive twins on sizes spanning several diagonal blocks.
func TestTrsmBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{trsmBlock + 1, 2*trsmBlock - 3, 97, 160} {
		for _, m := range []int{1, 5, 64, 130} {
			// Lower-left-unit: L n x n, B n x m.
			l := randView(rng, n, n)
			for i := 0; i < n; i++ {
				l.Set(i, i, 1)
			}
			b1 := randView(rng, n, m)
			b2 := cloneView(b1)
			TrsmLowerLeftUnit(l, b1)
			trsmLowerLeftUnitNaive(l, b2)
			if d := maxAbsDiffBacking(b1, b2); d > relTol(1e-9, b2) {
				t.Fatalf("blocked trsmL mismatch n=%d m=%d: %g", n, m, d)
			}
			// Upper-right: U n x n (diagonal away from zero), B m x n.
			u := randView(rng, n, n)
			for i := 0; i < n; i++ {
				u.Set(i, i, 2+rng.Float64())
			}
			c1 := randView(rng, m, n)
			c2 := cloneView(c1)
			TrsmUpperRight(u, c1)
			trsmUpperRightNaive(u, c2)
			if d := maxAbsDiffBacking(c1, c2); d > relTol(1e-9, c2) {
				t.Fatalf("blocked trsmU mismatch n=%d m=%d: %g", n, m, d)
			}
			// Lower-left non-unit (forward solve sweep, Cholesky L).
			ln := randView(rng, n, n)
			for i := 0; i < n; i++ {
				ln.Set(i, i, 2+rng.Float64())
			}
			e1 := randView(rng, n, m)
			e2 := cloneView(e1)
			TrsmLowerLeft(ln, e1)
			trsmLowerLeftNaive(ln, e2)
			if d := maxAbsDiffBacking(e1, e2); d > relTol(1e-9, e2) {
				t.Fatalf("blocked trsmLL mismatch n=%d m=%d: %g", n, m, d)
			}
			// Upper-left (backward solve sweep).
			un := randView(rng, n, n)
			for i := 0; i < n; i++ {
				un.Set(i, i, 2+rng.Float64())
			}
			f1 := randView(rng, n, m)
			f2 := cloneView(f1)
			TrsmUpperLeft(un, f1)
			trsmUpperLeftNaive(un, f2)
			if d := maxAbsDiffBacking(f1, f2); d > relTol(1e-9, f2) {
				t.Fatalf("blocked trsmUL mismatch n=%d m=%d: %g", n, m, d)
			}
			// Right-lower-transposed (Cholesky panel).
			lo := randView(rng, n, n)
			for i := 0; i < n; i++ {
				lo.Set(i, i, 2+rng.Float64())
			}
			d1 := randView(rng, m, n)
			d2 := cloneView(d1)
			TrsmRightLowerTrans(lo, d1)
			trsmRightLowerTransNaive(lo, d2)
			if d := maxAbsDiffBacking(d1, d2); d > relTol(1e-9, d2) {
				t.Fatalf("blocked trsmRLT mismatch n=%d m=%d: %g", n, m, d)
			}
		}
	}
}

// TestRecursiveLUPivotsInvariant verifies that RecursiveLU, whose
// solves and updates run on the packed kernels, picks the same pivot
// sequence as the scalar oracle Getf2 and factors within rounding of it
// — the property the CALU benchmarks rely on ("same pivots, residual
// bounds").
func TestRecursiveLUPivotsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, dims := range [][2]int{{64, 64}, {200, 96}, {333, 120}, {512, 64}} {
		m, n := dims[0], dims[1]
		a := randView(rng, m, n)
		tuned := cloneView(a)
		naive := cloneView(a)
		pivTuned := make([]int, n)
		pivNaive := make([]int, n)
		if err := RecursiveLU(tuned, pivTuned); err != nil {
			t.Fatal(err)
		}
		if err := Getf2(naive, pivNaive); err != nil {
			t.Fatal(err)
		}
		for k := range pivTuned {
			if pivTuned[k] != pivNaive[k] {
				t.Fatalf("%dx%d: pivot %d differs: tuned %d naive %d", m, n, k, pivTuned[k], pivNaive[k])
			}
		}
		if d := maxAbsDiffBacking(tuned, naive); d > relTol(1e-11, naive) {
			t.Fatalf("%dx%d: factors diverge: %g", m, n, d)
		}
	}
}

// TestGemmPropagatesNonFinite locks in the IEEE semantics the old
// zero-short-circuit violated: a zero in B against an Inf in A must
// produce NaN, not silently skip the column.
func TestGemmPropagatesNonFinite(t *testing.T) {
	for _, packed := range []bool{false, true} {
		m, n, k := 2*mr, 2*nr, 8
		rng := rand.New(rand.NewSource(5))
		a := randView(rng, m, k)
		b := randView(rng, k, n)
		c := randView(rng, m, n)
		a.Set(1, 3, math.Inf(1))
		for j := 0; j < n; j++ {
			b.Set(3, j, 0) // Inf * 0 must surface as NaN in every column
		}
		if packed {
			gemmPacked(c, a, b, false, nil, mr, nr, microKernel)
		} else {
			gemmNaive(c, a, b)
		}
		for j := 0; j < n; j++ {
			if !math.IsNaN(c.At(1, j)) {
				t.Fatalf("packed=%v: Inf*0 did not propagate NaN to column %d", packed, j)
			}
		}
	}
}

// TestTrsmPropagatesNonFinite is the TRSM half of the same guarantee.
func TestTrsmPropagatesNonFinite(t *testing.T) {
	n, m := 6, 3
	rng := rand.New(rand.NewSource(6))
	l := randView(rng, n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
	}
	l.Set(4, 2, math.Inf(1))
	l.Set(2, 0, 0)
	l.Set(2, 1, 0) // keep b(2,1) untouched until step k=2 consumes it
	b := randView(rng, n, m)
	b.Set(2, 1, 0) // zero rhs entry meets Inf multiplier
	trsmLowerLeftUnitNaive(l, b)
	if !math.IsNaN(b.At(4, 1)) {
		t.Fatal("Inf*0 did not propagate NaN through trsmL")
	}
}

// TestGemmPackedConcurrent runs many packed GEMMs in parallel on
// distinct outputs: the pooled pack workspaces must never alias.
func TestGemmPackedConcurrent(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for iter := 0; iter < 10; iter++ {
				m, n, k := 64+w, 64+iter, 96
				a := randView(rng, m, k)
				b := randView(rng, k, n)
				c1 := randView(rng, m, n)
				c2 := cloneView(c1)
				gemmPacked(c1, a, b, false, nil, mr, nr, microKernel)
				gemmNaive(c2, a, b)
				if d := maxAbsDiffBacking(c1, c2); d > errs[w] {
					errs[w] = d
				}
			}
		}(w)
	}
	wg.Wait()
	for w, d := range errs {
		if d > 1e-11 {
			t.Fatalf("worker %d saw mismatch %g under concurrency", w, d)
		}
	}
}

// TestGemmTilesMatchesPerTileGemm: one GemmTiles call over a grid of
// tiles gives the bits of one Gemm per tile — under every registered
// kernel with blocking small enough that the shapes cross kc, mc and
// nc, with ragged last tiles, tiles under the packed crossover beside
// packed ones, and grids where no tile packs. The backing comparison
// also proves no element outside C is written.
func TestGemmTilesMatchesPerTileGemm(t *testing.T) {
	cases := []struct {
		rows, cols []int // tile extents
		k          int
	}{
		{[]int{48, 48, 48}, []int{32, 32, 32, 32}, 32}, // every tile packs
		{[]int{96, 96, 7}, []int{32, 32, 5}, 32},       // ragged last tiles under the crossover
		{[]int{72, 72, 24}, []int{24, 24}, 24},         // only the last row tile is small
		{[]int{40, 40}, []int{40, 40, 3}, 30},          // only the last column tile is small
		{[]int{24, 24}, []int{24, 24}, 24},             // no tile packs
		{[]int{50}, []int{61}, 70},                     // one tile, deeper than kc
		{[]int{33, 33, 33}, []int{29, 29, 1}, 3},       // k below the crossover
	}
	ends := func(ext []int) []int {
		out, sum := make([]int, len(ext)), 0
		for i, e := range ext {
			sum += e
			out[i] = sum
		}
		return out
	}
	for _, p := range kernelProfiles() {
		p := p
		t.Run(p.Kernel, func(t *testing.T) {
			withProfile(t, p, func() {
				rng := rand.New(rand.NewSource(53))
				for _, tc := range cases {
					rowEnds, colEnds := ends(tc.rows), ends(tc.cols)
					m, n := rowEnds[len(rowEnds)-1], colEnds[len(colEnds)-1]
					a, b, c := randView(rng, m, tc.k), randView(rng, tc.k, n), randView(rng, m, n)
					want := cloneView(c)
					r0 := 0
					for _, r1 := range rowEnds {
						c0 := 0
						for _, c1 := range colEnds {
							Gemm(want.Sub(r0, r1, c0, c1), a.Sub(r0, r1, 0, tc.k), b.Sub(0, tc.k, c0, c1))
							c0 = c1
						}
						r0 = r1
					}
					GemmTiles(c, a, b, rowEnds, colEnds)
					sameBits(t, fmt.Sprintf("tiles %v x %v, k=%d", tc.rows, tc.cols, tc.k), c, want)
				}
			})
		})
	}
}
