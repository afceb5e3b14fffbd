package kernel

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The scalar loop nests the triangular micro-solvers ran before they
// moved onto rank1Sub/scaleVec, kept verbatim as oracles: the vector
// forms must reproduce them bit for bit.

func oracleTrsmLowerLeftUnit(l, b View) {
	n, m := b.Rows, b.Cols
	for j := 0; j < m; j++ {
		bj := b.Data[j*b.Stride : j*b.Stride+n]
		for k := 0; k < n; k++ {
			bkj := bj[k]
			lk := l.Data[k*l.Stride:]
			for i := k + 1; i < n; i++ {
				bj[i] -= lk[i] * bkj
			}
		}
	}
}

func oracleTrsmLowerLeft(l, b View) {
	n, m := b.Rows, b.Cols
	for j := 0; j < m; j++ {
		bj := b.Data[j*b.Stride : j*b.Stride+n]
		for k := 0; k < n; k++ {
			bkj := bj[k] / l.Data[k*l.Stride+k]
			bj[k] = bkj
			lk := l.Data[k*l.Stride:]
			for i := k + 1; i < n; i++ {
				bj[i] -= lk[i] * bkj
			}
		}
	}
}

func oracleTrsmUpperLeft(u, b View) {
	n, m := b.Rows, b.Cols
	for j := 0; j < m; j++ {
		bj := b.Data[j*b.Stride : j*b.Stride+n]
		for k := n - 1; k >= 0; k-- {
			bkj := bj[k] / u.Data[k*u.Stride+k]
			bj[k] = bkj
			uk := u.Data[k*u.Stride:]
			for i := 0; i < k; i++ {
				bj[i] -= uk[i] * bkj
			}
		}
	}
}

// oracleTrsmRight covers both right-side solves: coef(k, j) is U[k,j]
// for TrsmUpperRight and L[j,k] for TrsmRightLowerTrans.
func oracleTrsmRight(b View, coef func(k, j int) float64) {
	m, n := b.Rows, b.Cols
	for j := 0; j < n; j++ {
		bj := b.Data[j*b.Stride : j*b.Stride+m]
		for k := 0; k < j; k++ {
			bk := b.Data[k*b.Stride : k*b.Stride+m]
			axpy(bj, bk, -coef(k, j))
		}
		inv := 1 / coef(j, j)
		for i := range bj {
			bj[i] *= inv
		}
	}
}

// sameBitsOrNaN compares full backing slices (stray writes included):
// equal bit patterns, or NaN in the same place — a NaN's sign and
// payload are the one thing the vector form does not promise.
func sameBitsOrNaN(t *testing.T, what string, got, want View) {
	t.Helper()
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: backing[%d] = %x (%g), scalar oracle %x (%g)", what, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// trsmCase is one micro-solver against its oracle; left says whether
// the triangle multiplies from the left (B is size x other) or from the
// right (B is other x size).
type trsmCase struct {
	name   string
	left   bool
	solve  func(tri, b View)
	oracle func(tri, b View)
}

func trsmCases() []trsmCase {
	upperRight := func(u, b View) {
		oracleTrsmRight(b, func(k, j int) float64 { return u.Data[j*u.Stride+k] })
	}
	rightLowerTrans := func(l, b View) {
		oracleTrsmRight(b, func(k, j int) float64 { return l.Data[k*l.Stride+j] })
	}
	return []trsmCase{
		{"LowerLeftUnit", true, trsmLowerLeftUnitNaive, oracleTrsmLowerLeftUnit},
		{"LowerLeftUnitDiag", true, trsmLowerLeftUnitDiag, oracleTrsmLowerLeftUnit},
		{"LowerLeft", true, trsmLowerLeftNaive, oracleTrsmLowerLeft},
		{"UpperLeft", true, trsmUpperLeftNaive, oracleTrsmUpperLeft},
		{"UpperRight", false, trsmUpperRightNaive, upperRight},
		{"RightLowerTrans", false, trsmRightLowerTransNaive, rightLowerTrans},
		{"UpperRightPortable", false, withPortableSweep(trsmUpperRightNaive), upperRight},
		{"RightLowerTransPortable", false, withPortableSweep(trsmRightLowerTransNaive), rightLowerTrans},
	}
}

// withPortableSweep runs solve on the portable column sweep, the one
// the platforms without a vector kernel use.
func withPortableSweep(solve func(tri, b View)) func(tri, b View) {
	return func(tri, b View) {
		saved := trsmRightSweep
		trsmRightSweep = trsmRightSweepGeneric
		defer func() { trsmRightSweep = saved }()
		solve(tri, b)
	}
}

// TestTrsmVectorMatchesScalarOracles: every triangle size 0..40 — all
// vector-body/4-tail/scalar-tail combinations of the helpers — against
// every operand extent 0..40 on strided views, same bits as the scalar
// loops. The right-side solves also get the extents on both sides of
// their column sweep's 32-row blocks.
func TestTrsmVectorMatchesScalarOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	extents := []int{0, 1, 3, 8, 17, 40, 67}
	sweepExtents := append([]int{31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 192, 200}, extents...)
	for _, tc := range trsmCases() {
		others := extents
		if !tc.left {
			others = sweepExtents
		}
		for size := 0; size <= 40; size++ {
			for _, other := range others {
				tri := randView(rng, size, size)
				for d := 0; d < size; d++ {
					tri.Data[d*tri.Stride+d] += 4 // keep the diagonal away from 0
				}
				rows, cols := size, other
				if !tc.left {
					rows, cols = other, size
				}
				got := randView(rng, rows, cols)
				want := cloneView(got)
				tc.solve(tri, got)
				tc.oracle(tri, want)
				sameBitsOrNaN(t, tc.name, got, want)
			}
		}
	}
}

// TestTrsmVectorNonFinite plants NaN, ±Inf and -0 in the triangle and
// in the right-hand side: they must land exactly where the scalar
// loops put them, and every finite or infinite result keeps its bits
// (so -0 survives as -0).
func TestTrsmVectorNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for _, tc := range trsmCases() {
		for _, size := range []int{1, 5, 13, 32, 37} {
			for _, sp := range specials {
				for _, inTri := range []bool{true, false} {
					tri := randView(rng, size, size)
					for d := 0; d < size; d++ {
						tri.Data[d*tri.Stride+d] += 4
					}
					rows, cols := size, 9
					if !tc.left {
						rows, cols = 9, size
					}
					got := randView(rng, rows, cols)
					if inTri {
						// Off the diagonal: a zero there is the singular panic,
						// which the oracles do not model.
						i, j := rng.Intn(size), rng.Intn(size)
						if i != j {
							tri.Data[j*tri.Stride+i] = sp
						}
					} else {
						got.Data[rng.Intn(cols)*got.Stride+rng.Intn(rows)] = sp
					}
					want := cloneView(got)
					tc.solve(tri, got)
					tc.oracle(tri, want)
					sameBitsOrNaN(t, tc.name, got, want)
				}
			}
		}
	}
}

// triangle builds an n x n triangular operand whose read part holds
// small random values (so a 100-wide solve stays finite) on a diagonal
// kept away from zero; the rest is random too, for the caller to poison.
func triangle(rng *rand.Rand, n int) View {
	tri := randView(rng, n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			tri.Data[j*tri.Stride+i] /= float64(n)
		}
		tri.Data[j*tri.Stride+j] += 1
	}
	return tri
}

// TestTrsmLeavesOtherTriangleUnread: every public triangular solve, on
// both its tile-kernel and blocked sizes, gives the same bits when the
// triangle it must not read — for the unit solve the diagonal too — is
// NaN. A kernel or packer that loads it, even to multiply by zero,
// propagates the NaN.
func TestTrsmLeavesOtherTriangleUnread(t *testing.T) {
	upper := func(i, j int) bool { return i < j }
	lower := func(i, j int) bool { return i > j }
	cases := []struct {
		name   string
		left   bool
		solve  func(tri, b View)
		unread func(i, j int) bool
	}{
		{"TrsmLowerLeftUnit", true, TrsmLowerLeftUnit, func(i, j int) bool { return i <= j }},
		{"TrsmLowerLeft", true, TrsmLowerLeft, upper},
		{"TrsmUpperLeft", true, TrsmUpperLeft, lower},
		{"TrsmUpperRight", false, TrsmUpperRight, lower},
		{"TrsmRightLowerTrans", false, TrsmRightLowerTrans, upper},
	}
	rng := rand.New(rand.NewSource(37))
	for _, tc := range cases {
		others := []int{37}
		if !tc.left {
			others = append(others, 64, 192) // task L's 64-row block, and a taller one
		}
		for _, n := range []int{8, 32, 64, 100} {
			for _, other := range others {
				tri := triangle(rng, n)
				poisoned := cloneView(tri)
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						if tc.unread(i, j) {
							poisoned.Data[j*poisoned.Stride+i] = math.NaN()
						}
					}
				}
				rows, cols := n, other
				if !tc.left {
					rows, cols = other, n
				}
				want := randView(rng, rows, cols)
				got := cloneView(want)
				tc.solve(tri, want)
				tc.solve(poisoned, got)
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s n=%d other=%d: backing[%d] = %g with the unread triangle poisoned, %g without", tc.name, n, other, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestTrsmLowerLeftUnitUpperWrittenConcurrently: the incremental-
// pivoting baseline's TSTRF rewrites a diagonal tile's U while GESSM
// solves with the same tile's unit L. Under -race, any load of the
// diagonal or the upper triangle is a reported race; without it, a load
// shows up as a NaN in the solution.
func TestTrsmLowerLeftUnitUpperWrittenConcurrently(t *testing.T) {
	const n, m = 64, 40
	rng := rand.New(rand.NewSource(41))
	l := triangle(rng, n)
	b := randView(rng, n, m)
	want := cloneView(b)
	TrsmLowerLeftUnit(l, want)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sweep := 0; ; sweep++ {
			select {
			case <-stop:
				return
			default:
			}
			v := float64(sweep)
			if sweep%2 == 1 {
				v = math.NaN()
			}
			for j := 0; j < n; j++ {
				for i := 0; i <= j; i++ {
					l.Data[j*l.Stride+i] = v
				}
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	for it := 0; it < 50; it++ {
		got := cloneView(b)
		TrsmLowerLeftUnit(l, got)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("solve %d: backing[%d] = %g while the upper triangle changed, %g before", it, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestRank1SubScaleVecTails pins the helpers themselves on every
// length 0..40 against the portable loops (which are the scalar
// rounding contract), unaligned starts included.
func TestRank1SubScaleVecTails(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 40; n++ {
		for off := 0; off < 4; off++ {
			c := make([]float64, n+off+3) // 3 trailing guards against overrun
			l := make([]float64, n+off+3)
			for i := range c {
				c[i], l[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			u := rng.NormFloat64()
			c2 := append([]float64(nil), c...)
			l2 := append([]float64(nil), l...)
			rank1Sub(c[off:off+n], l[off:off+n], u)
			rank1SubGeneric(c2[off:off+n], l2[off:off+n], u)
			scaleVec(l[off:off+n], u)
			scaleVecGeneric(l2[off:off+n], u)
			for i := range c {
				if math.Float64bits(c[i]) != math.Float64bits(c2[i]) {
					t.Fatalf("rank1Sub n=%d off=%d: c[%d] = %x, portable %x", n, off, i, math.Float64bits(c[i]), math.Float64bits(c2[i]))
				}
				if math.Float64bits(l[i]) != math.Float64bits(l2[i]) {
					t.Fatalf("scaleVec n=%d off=%d: l[%d] = %x, portable %x", n, off, i, math.Float64bits(l[i]), math.Float64bits(l2[i]))
				}
			}
		}
	}
}
