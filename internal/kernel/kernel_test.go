package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func view(a *mat.Dense) View {
	return View{Rows: a.Rows, Cols: a.Cols, Stride: a.Stride, Data: a.Data}
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {16, 16, 16}, {65, 33, 70}, {128, 64, 130}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := mat.Random(m, k, rng)
		b := mat.Random(k, n, rng)
		c := mat.Random(m, n, rng)
		want := c.Clone()
		ab := mat.MulNaive(a, b)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				want.Set(i, j, want.At(i, j)-ab.At(i, j))
			}
		}
		Gemm(view(c), view(a), view(b))
		if mat.MaxAbsDiff(c, want) > 1e-11 {
			t.Fatalf("gemm mismatch for %v: %g", dims, mat.MaxAbsDiff(c, want))
		}
	}
}

func TestGemmOnStridedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	big := mat.Random(20, 20, rng)
	a := big.Slice(2, 8, 3, 7)   // 6x4
	b := big.Slice(10, 14, 5, 9) // 4x4
	c := big.Slice(1, 7, 12, 16) // 6x4
	want := c.Clone()
	ab := mat.MulNaive(a.Clone(), b.Clone())
	for j := 0; j < 4; j++ {
		for i := 0; i < 6; i++ {
			want.Set(i, j, want.At(i, j)-ab.At(i, j))
		}
	}
	Gemm(view(c), view(a), view(b))
	if mat.MaxAbsDiff(c.Clone(), want) > 1e-12 {
		t.Fatal("gemm wrong on strided views")
	}
}

func TestTrsmLowerLeftUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 12, 7
	l := mat.Random(n, n, rng)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	b := mat.Random(n, m, rng)
	x := b.Clone()
	TrsmLowerLeftUnit(view(l), view(x))
	lx := mat.MulNaive(l, x)
	if mat.MaxAbsDiff(lx, b) > 1e-10 {
		t.Fatalf("L*X != B: %g", mat.MaxAbsDiff(lx, b))
	}
}

func TestTrsmUpperRight(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, m := 9, 6
	u := mat.Random(n, n, rng)
	for i := 0; i < n; i++ {
		u.Set(i, i, 2+rng.Float64()) // well away from zero
		for j := 0; j < i; j++ {
			u.Set(i, j, 0)
		}
	}
	b := mat.Random(m, n, rng)
	x := b.Clone()
	TrsmUpperRight(view(u), view(x))
	xu := mat.MulNaive(x, u)
	if mat.MaxAbsDiff(xu, b) > 1e-10 {
		t.Fatalf("X*U != B: %g", mat.MaxAbsDiff(xu, b))
	}
}

func TestTrsmUpperRightSingularPanics(t *testing.T) {
	u := identity(3)
	u.Set(1, 1, 0)
	b := mat.New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on singular U")
		}
	}()
	TrsmUpperRight(view(u), view(b))
}

// factorAndCheck verifies P*A = L*U for a pivoted factorization of a.
func factorAndCheck(t *testing.T, a *mat.Dense, factor func(View, []int) error) {
	t.Helper()
	m, n := a.Rows, a.Cols
	work := a.Clone()
	pivots := make([]int, min(m, n))
	if err := factor(view(work), pivots); err != nil {
		t.Fatalf("factorization failed: %v", err)
	}
	// Build the permutation vector from the swap sequence.
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for k, p := range pivots {
		perm[k], perm[p] = perm[p], perm[k]
	}
	pa := mat.PermuteRows(a, perm)
	// Extract L (m x min) and U (min x n).
	mn := min(m, n)
	l := mat.New(m, mn)
	u := mat.New(mn, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := work.At(i, j)
			switch {
			case i > j && j < mn:
				l.Set(i, j, v)
			case i <= j && i < mn:
				u.Set(i, j, v)
			}
		}
	}
	for i := 0; i < mn; i++ {
		l.Set(i, i, 1)
	}
	lu := mat.MulNaive(l, u)
	res := mat.MaxAbsDiff(pa, lu) / math.Max(1, a.NormMax())
	if res > 1e-10 {
		t.Fatalf("PA != LU, residual %g", res)
	}
}

func TestGetf2Square(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	factorAndCheck(t, mat.Random(20, 20, rng), Getf2)
}

func TestGetf2TallPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	factorAndCheck(t, mat.Random(57, 8, rng), Getf2)
}

func TestRecursiveLUMatchesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{20, 20}, {100, 40}, {64, 64}, {33, 17}, {130, 50}} {
		factorAndCheck(t, mat.Random(dims[0], dims[1], rng), RecursiveLU)
	}
}

func TestRecursiveLUPartialPivotingGrowth(t *testing.T) {
	// Partial pivoting keeps |L| <= 1.
	rng := rand.New(rand.NewSource(8))
	a := mat.Random(80, 40, rng)
	work := a.Clone()
	pivots := make([]int, 40)
	if err := RecursiveLU(view(work), pivots); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 40; j++ {
		for i := j + 1; i < 80; i++ {
			if math.Abs(work.At(i, j)) > 1+1e-12 {
				t.Fatalf("|L(%d,%d)| = %g > 1: pivoting broken", i, j, work.At(i, j))
			}
		}
	}
}

func TestGetf2Singular(t *testing.T) {
	a := mat.New(4, 4) // all zeros
	pivots := make([]int, 4)
	if err := Getf2(view(a), pivots); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestGetrfNoPiv(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := mat.RandomDiagDominant(16, rng)
	work := a.Clone()
	if err := Getrf(view(work), nil); err != nil {
		t.Fatal(err)
	}
	l := identity(16)
	u := mat.New(16, 16)
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			if i > j {
				l.Set(i, j, work.At(i, j))
			} else {
				u.Set(i, j, work.At(i, j))
			}
		}
	}
	lu := mat.MulNaive(l, u)
	if mat.MaxAbsDiff(lu, a) > 1e-9*a.NormMax() {
		t.Fatalf("no-pivot LU wrong: %g", mat.MaxAbsDiff(lu, a))
	}
}

func TestCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := mat.Random(7, 7, rng)
	b := mat.New(7, 7)
	Copy(view(b), view(a))
	if mat.MaxAbsDiff(a, b) != 0 {
		t.Fatal("copy mismatch")
	}
}

func TestSubView(t *testing.T) {
	a := mat.New(6, 6)
	a.Set(2, 3, 5)
	v := view(a).Sub(2, 5, 3, 6)
	if v.At(0, 0) != 5 {
		t.Fatal("Sub wrong offset")
	}
	v.Set(1, 1, 7)
	if a.At(3, 4) != 7 {
		t.Fatal("Sub must alias")
	}
}

// Property: recursive LU and unblocked GEPP produce the same U factor
// up to row permutation differences — we verify both reconstruct PA.
func TestRecursiveLUEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 17 + int(rng.Int31n(40))
		n := 5 + int(rng.Int31n(17))
		if m < n {
			m, n = n, m
		}
		a := mat.Random(m, n, rng)

		check := func(factor func(View, []int) error) float64 {
			work := a.Clone()
			pivots := make([]int, n)
			if err := factor(view(work), pivots); err != nil {
				return math.Inf(1)
			}
			perm := make([]int, m)
			for i := range perm {
				perm[i] = i
			}
			for k, p := range pivots {
				perm[k], perm[p] = perm[p], perm[k]
			}
			pa := mat.PermuteRows(a, perm)
			l := mat.New(m, n)
			u := mat.New(n, n)
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					v := work.At(i, j)
					if i > j {
						l.Set(i, j, v)
					} else {
						u.Set(i, j, v)
					}
				}
			}
			for i := 0; i < n; i++ {
				l.Set(i, i, 1)
			}
			return mat.MaxAbsDiff(pa, mat.MulNaive(l, u))
		}
		return check(Getf2) < 1e-10 && check(RecursiveLU) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPotf2ReconstructsSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 24
	b := mat.Random(n, n, rng)
	a := mat.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, s)
		}
		a.Set(j, j, a.At(j, j)+float64(n))
	}
	work := a.Clone()
	if err := Potf2(view(work)); err != nil {
		t.Fatal(err)
	}
	// Check A = L L^T on the lower triangle.
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += work.At(i, k) * work.At(j, k)
			}
			if math.Abs(s-a.At(i, j)) > 1e-9*a.NormMax() {
				t.Fatalf("LL^T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPotf2RejectsIndefinite(t *testing.T) {
	a := identity(4)
	a.Set(2, 2, -1)
	if err := Potf2(view(a)); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestTrsmRightLowerTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n, m := 10, 7
	l := mat.Random(n, n, rng)
	for i := 0; i < n; i++ {
		l.Set(i, i, 2+rng.Float64())
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	b := mat.Random(m, n, rng)
	x := b.Clone()
	TrsmRightLowerTrans(view(l), view(x))
	// Verify X * L^T = B.
	lt := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lt.Set(i, j, l.At(j, i))
		}
	}
	xlt := mat.MulNaive(x, lt)
	if mat.MaxAbsDiff(xlt, b) > 1e-10 {
		t.Fatalf("X L^T != B: %g", mat.MaxAbsDiff(xlt, b))
	}
}

func TestGemmNT(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m, n, k := 9, 6, 5
	a := mat.Random(m, k, rng)
	b := mat.Random(n, k, rng)
	c := mat.Random(m, n, rng)
	want := c.Clone()
	bt := mat.New(k, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	abt := mat.MulNaive(a, bt)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want.Set(i, j, want.At(i, j)-abt.At(i, j))
		}
	}
	GemmNT(view(c), view(a), view(b))
	if mat.MaxAbsDiff(c, want) > 1e-11 {
		t.Fatalf("gemmNT mismatch %g", mat.MaxAbsDiff(c, want))
	}
}

// identity returns the n x n identity.
func identity(n int) *mat.Dense {
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	return a
}
