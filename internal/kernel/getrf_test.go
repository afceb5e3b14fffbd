package kernel

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// factorBoth runs Getf2 and Getrf on clones of a and asserts that the
// blocked path reproduces the scalar oracle bit for bit: identical
// pivot sequences AND identical matrix values (MaxAbsDiff exactly 0).
func factorBoth(t *testing.T, a *mat.Dense) {
	t.Helper()
	steps := min(a.Rows, a.Cols)
	w1, w2 := a.Clone(), a.Clone()
	p1 := make([]int, steps)
	p2 := make([]int, steps)
	if err := Getf2(view(w1), p1); err != nil {
		t.Fatalf("getf2 %dx%d: %v", a.Rows, a.Cols, err)
	}
	if err := Getrf(view(w2), p2); err != nil {
		t.Fatalf("getrf %dx%d: %v", a.Rows, a.Cols, err)
	}
	for k := range p1 {
		if p1[k] != p2[k] {
			t.Fatalf("%dx%d pivot %d: scalar %d, blocked %d", a.Rows, a.Cols, k, p1[k], p2[k])
		}
	}
	if d := mat.MaxAbsDiff(w1, w2); d != 0 {
		t.Fatalf("%dx%d values differ by %g: blocked path is not bit-identical", a.Rows, a.Cols, d)
	}
}

func TestGetrfBitIdenticalEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][2]int{
		{1, 1},   // degenerate
		{3, 1},   // n = 1
		{5, 5},   // m = n < mr
		{7, 9},   // m < mr, wide
		{8, 8},   // exactly one AVX2 register tile
		{33, 9},  // one micro-panel plus ragged trailing columns
		{64, 64}, // m = n through the blocked path
		{57, 8},  // tall, n = mr on AVX2 hosts
		{200, 64},
		{100, 33},
		{96, 130}, // wide: U rows extend past the last pivot column
	}
	for _, s := range shapes {
		factorBoth(t, mat.Random(s[0], s[1], rng))
	}
}

// Property: over random tall panel shapes the blocked GETRF pivots and
// values are bit-identical to scalar Getf2 — the invariant that lets
// tournament pivoting behave identically whichever path a leaf takes.
func TestGetrfBitIdenticalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rng.Int31n(64))
		m := n + int(rng.Int31n(300))
		a := mat.Random(m, n, rng)
		steps := min(m, n)
		w1, w2 := a.Clone(), a.Clone()
		p1 := make([]int, steps)
		p2 := make([]int, steps)
		if err := Getf2(view(w1), p1); err != nil {
			return false
		}
		if err := Getrf(view(w2), p2); err != nil {
			return false
		}
		for k := range p1 {
			if p1[k] != p2[k] {
				return false
			}
		}
		return mat.MaxAbsDiff(w1, w2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGetrfNoPivBitIdentical pins the blocked no-pivot LU to its scalar
// oracle, on the registered panel layer and on the portable one.
func TestGetrfNoPivBitIdentical(t *testing.T) {
	check := func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for _, n := range []int{8, 16, 32, 33, 100} {
			a := mat.RandomDiagDominant(n, rng)
			w1, w2 := a.Clone(), a.Clone()
			if err := getrfNoPivUnblocked(view(w1), 0); err != nil {
				t.Fatal(err)
			}
			if err := GetrfNoPiv(view(w2)); err != nil {
				t.Fatal(err)
			}
			if d := mat.MaxAbsDiff(w1, w2); d != 0 {
				t.Fatalf("n=%d no-pivot values differ by %g", n, d)
			}
		}
	}
	t.Run("registered", check)
	t.Run("portable-panel", func(t *testing.T) { withPortablePanel(func() { check(t) }) })
}

// rankDeficient builds an m x n matrix with `rank` random rows above a
// zero-row region. Zero rows stay exactly zero under elimination (the
// multiplier 0*inv is exact, unlike the cancellation between duplicated
// rows, which can be off by an ulp), so GEPP deterministically meets an
// exactly zero pivot at column `rank`.
func rankDeficient(m, n, rank int, rng *rand.Rand) *mat.Dense {
	a := mat.New(m, n)
	a.Slice(0, rank, 0, n).CopyFrom(mat.Random(rank, n, rng))
	return a
}

func TestGetf2SingularPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := rankDeficient(12, 6, 3, rng)
	piv := make([]int, 6)
	err := Getf2(view(a), piv)
	var se *SingularError
	if !errors.As(err, &se) {
		t.Fatalf("want *SingularError, got %v", err)
	}
	if se.K != 3 {
		t.Fatalf("established prefix %d, want 3 (rank of the input)", se.K)
	}
	for k := 0; k < se.K; k++ {
		if piv[k] < k || piv[k] >= 12 {
			t.Fatalf("prefix pivot %d out of range: %d", k, piv[k])
		}
	}
}

func TestGetrfSingularPrefixMatchesGetf2(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	// Big enough to engage the blocked path; rank 2 < mr so the first
	// micro-panel itself fails.
	a := rankDeficient(96, 12, 2, rng)
	p1 := make([]int, 12)
	p2 := make([]int, 12)
	e1 := Getf2(view(a.Clone()), p1)
	e2 := Getrf(view(a.Clone()), p2)
	var s1, s2 *SingularError
	if !errors.As(e1, &s1) || !errors.As(e2, &s2) {
		t.Fatalf("want singular errors, got %v / %v", e1, e2)
	}
	if s1.K != s2.K {
		t.Fatalf("prefix length differs: scalar %d, blocked %d", s1.K, s2.K)
	}
	for k := 0; k < s1.K; k++ {
		if p1[k] != p2[k] {
			t.Fatalf("prefix pivot %d differs: %d vs %d", k, p1[k], p2[k])
		}
	}
}

func TestGetrfSingularPrefixPastFirstMicroPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// Zero column at index 13: the failure happens in the second
	// micro-panel on AVX2 hosts, exercising the prefix globalization.
	a := mat.Random(80, 24, rng)
	for i := 0; i < 80; i++ {
		a.Set(i, 13, 0)
	}
	p1 := make([]int, 24)
	p2 := make([]int, 24)
	e1 := Getf2(view(a.Clone()), p1)
	e2 := Getrf(view(a.Clone()), p2)
	var s1, s2 *SingularError
	if !errors.As(e1, &s1) || !errors.As(e2, &s2) {
		t.Fatalf("want singular errors, got %v / %v", e1, e2)
	}
	if s1.K != 13 || s2.K != 13 {
		t.Fatalf("prefix lengths %d / %d, want 13 (the zero column)", s1.K, s2.K)
	}
	for k := 0; k < 13; k++ {
		if p1[k] != p2[k] {
			t.Fatalf("prefix pivot %d differs: %d vs %d", k, p1[k], p2[k])
		}
	}
}

func TestRecursiveLUSingularPrefixRightHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	// Zero column at 70 > steps/2, so the failure surfaces in the right
	// recursion and the prefix must be globalized across the split.
	a := mat.Random(96, 96, rng)
	for i := 0; i < 96; i++ {
		a.Set(i, 70, 0)
	}
	piv := make([]int, 96)
	err := RecursiveLU(view(a), piv)
	var se *SingularError
	if !errors.As(err, &se) {
		t.Fatalf("want *SingularError, got %v", err)
	}
	if se.K != 70 {
		t.Fatalf("established prefix %d, want 70", se.K)
	}
	for k := 0; k < se.K; k++ {
		if piv[k] < k || piv[k] >= 96 {
			t.Fatalf("prefix pivot %d out of range: %d", k, piv[k])
		}
	}
}
