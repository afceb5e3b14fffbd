package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
)

// The element-wise factor extraction the bulk split replaced lives on
// here as the oracle it is pinned against, bit for bit.

// oracleExtractLU is the old ExtractLU: densify, then file every
// element into L or U by its position.
func oracleExtractLU(d *mat.Dense) (*mat.Dense, *mat.Dense) {
	m, n := d.Rows, d.Cols
	r := min(m, n)
	lf := mat.New(m, r)
	uf := mat.New(r, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := d.At(i, j)
			if i > j && j < r {
				lf.Set(i, j, v)
			}
			if i <= j && i < r {
				uf.Set(i, j, v)
			}
		}
	}
	for i := 0; i < r; i++ {
		lf.Set(i, i, 1)
	}
	return lf, uf
}

// oracleCholeskyL is the old CholeskyJob.Finish extraction.
func oracleCholeskyL(d *mat.Dense) *mat.Dense {
	n := d.Rows
	lf := mat.New(n, n)
	for c := 0; c < n; c++ {
		for i := c; i < n; i++ {
			lf.Set(i, c, d.At(i, c))
		}
	}
	return lf
}

func sameBits(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if g, w := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)); g != w {
				t.Fatalf("%s: (%d,%d) = %x, want %x", what, i, j, g, w)
			}
		}
	}
}

// hostile returns an m x n matrix of random values salted with -0,
// infinities, NaNs with distinct payloads and denormals. No entry is
// +0 or 1, so the triangle checks below cannot be satisfied by data.
func hostile(m, n int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	a := mat.Random(m, n, rng)
	specials := []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	}
	for k := range a.Data {
		if rng.Intn(4) == 0 {
			a.Data[k] = specials[rng.Intn(len(specials))]
		}
	}
	return a
}

var extractKinds = []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel}

// extractWorkers are the worker counts whose most-square grids are 1x1,
// 1x2, 2x2 and 2x3.
var extractWorkers = []int{1, 2, 4, 6}

// extractProcs are the GOMAXPROCS values every case runs under: one,
// so an above-cutoff walk runs serially as on a one-CPU host, and four,
// so it really forks whatever machine the test is on.
var extractProcs = []int{1, 4}

// forEachExtractCase calls f for every layout kind x worker count x
// extractProcs.
func forEachExtractCase(f func(kind layout.Kind, w, procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, kind := range extractKinds {
		for _, w := range extractWorkers {
			for _, procs := range extractProcs {
				runtime.GOMAXPROCS(procs)
				f(kind, w, procs)
			}
		}
	}
}

// TestExtractLUMatchesOracle: the straight-from-the-layout split is
// bit-identical to densify-then-file over kinds x ragged shapes x
// grids on both sides of the parallel cutoff, and the triangles it
// does not own stay exactly zero around a unit diagonal.
func TestExtractLUMatchesOracle(t *testing.T) {
	shapes := []struct{ m, n, b int }{
		{1, 1, 1}, {1, 1, 8}, {7, 13, 4}, {13, 7, 4}, {5, 9, 8}, {64, 64, 16}, {30, 20, 7},
		{600, 450, 64}, {450, 600, 37}, {40, 7000, 64}, {7000, 40, 33},
	}
	for si, s := range shapes {
		a := hostile(s.m, s.n, int64(si+1))
		wantL, wantU := oracleExtractLU(a)
		forEachExtractCase(func(kind layout.Kind, w, procs int) {
			tag := fmt.Sprintf("%v %dx%d b=%d W=%d P=%d", kind, s.m, s.n, s.b, w, procs)
			lf, uf := ExtractLU(layout.New(kind, a, s.b, layout.NewGrid(w)))
			sameBits(t, tag+" L", lf, wantL)
			sameBits(t, tag+" U", uf, wantU)
			for j := 0; j < lf.Cols; j++ {
				for i := 0; i <= j; i++ {
					want := uint64(0)
					if i == j {
						want = math.Float64bits(1)
					}
					if got := math.Float64bits(lf.At(i, j)); got != want {
						t.Fatalf("%s: L(%d,%d) = %x, want %x", tag, i, j, got, want)
					}
				}
			}
			for j := 0; j < uf.Cols; j++ {
				for i := j + 1; i < uf.Rows; i++ {
					if got := math.Float64bits(uf.At(i, j)); got != 0 {
						t.Fatalf("%s: U(%d,%d) = %x, want +0", tag, i, j, got)
					}
				}
			}
		})
	}
}

// TestReferenceLUSplitMatchesOracle: the one-block use of the split
// helper (the whole factored matrix at once) files like the old loop.
func TestReferenceLUSplitMatchesOracle(t *testing.T) {
	for si, s := range [][2]int{{1, 1}, {9, 5}, {5, 9}, {40, 40}} {
		a := hostile(s[0], s[1], int64(si+1))
		lf, uf := luFactors(a.Rows, a.Cols)
		splitBlock(lf, uf, kernel.View{Rows: a.Rows, Cols: a.Cols, Stride: a.Stride, Data: a.Data}, 0, 0, 1)
		wantL, wantU := oracleExtractLU(a)
		sameBits(t, "L", lf, wantL)
		sameBits(t, "U", uf, wantU)
	}
}

// TestCholeskyFinishMatchesOracle: Finish on a prepared, not yet run
// job extracts the lower triangle of exactly what the layout holds —
// the input — so hostile payloads reach the split untouched by
// arithmetic; the never-factored strict upper triangle stays +0.
func TestCholeskyFinishMatchesOracle(t *testing.T) {
	for si, s := range [][2]int{{1, 1}, {1, 8}, {13, 4}, {5, 8}, {64, 16}, {30, 7}, {600, 64}, {530, 37}} {
		a := hostile(s[0], s[0], int64(si+1))
		want := oracleCholeskyL(a)
		forEachExtractCase(func(kind layout.Kind, w, procs int) {
			job, err := PrepareCholesky(a, Options{Layout: kind, Block: s[1], Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			got := job.Finish(rt.Result{}).L
			sameBits(t, fmt.Sprintf("%v n=%d b=%d W=%d P=%d", kind, s[0], s[1], w, procs), got, want)
		})
	}
}
