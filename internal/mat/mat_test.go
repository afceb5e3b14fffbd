package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	a := New(3, 4)
	if a.Rows != 3 || a.Cols != 4 || a.Stride != 3 {
		t.Fatalf("bad shape %+v", a)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 3; i++ {
			if a.At(i, j) != 0 {
				t.Fatalf("not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	a := New(5, 7)
	rng := rand.New(rand.NewSource(1))
	want := map[[2]int]float64{}
	for k := 0; k < 35; k++ {
		i, j := k%5, k/5
		v := rng.NormFloat64()
		a.Set(i, j, v)
		want[[2]int{i, j}] = v
	}
	for k, v := range want {
		if a.At(k[0], k[1]) != v {
			t.Fatalf("At(%d,%d)=%v want %v", k[0], k[1], a.At(k[0], k[1]), v)
		}
	}
}

func TestColumnMajorStorageOrder(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 0, 2)
	a.Set(0, 1, 3)
	a.Set(1, 1, 4)
	want := []float64{1, 2, 3, 4}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("data[%d]=%v want %v (column-major violated)", i, a.Data[i], v)
		}
	}
}

func TestSliceAliases(t *testing.T) {
	a := New(4, 4)
	s := a.Slice(1, 3, 2, 4)
	s.Set(0, 0, 9)
	if a.At(1, 2) != 9 {
		t.Fatal("slice does not alias parent")
	}
	if s.Rows != 2 || s.Cols != 2 {
		t.Fatalf("bad slice shape %dx%d", s.Rows, s.Cols)
	}
}

func TestSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range slice")
		}
	}()
	New(3, 3).Slice(0, 4, 0, 3)
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(6, 5, rng)
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) == 42 {
		t.Fatal("clone shares storage")
	}
	b.Set(0, 0, a.At(0, 0))
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("clone differs")
	}
}

// TestNoRowsCloneAndZero: a matrix with no rows and several columns
// has no storage to slice a column from; Clone and Zero still work.
func TestNoRowsCloneAndZero(t *testing.T) {
	a := New(0, 3)
	if b := a.Clone(); b.Rows != 0 || b.Cols != 3 {
		t.Fatalf("clone of 0x3 is %dx%d", b.Rows, b.Cols)
	}
	a.Zero()
}

func TestEyeAndPermute(t *testing.T) {
	e := Eye(4)
	perm := []int{2, 0, 3, 1}
	p := PermuteRows(e, perm)
	for i, pi := range perm {
		for j := 0; j < 4; j++ {
			want := 0.0
			if j == pi {
				want = 1
			}
			if p.At(i, j) != want {
				t.Fatalf("permute wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestSwapRowsPartialColumns(t *testing.T) {
	a := New(3, 3)
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			a.Set(i, j, float64(10*i+j))
		}
	}
	a.SwapRows(0, 2, 1, 3) // only columns 1 and 2
	if a.At(0, 0) != 0 || a.At(2, 0) != 20 {
		t.Fatal("column 0 must be untouched")
	}
	if a.At(0, 1) != 21 || a.At(2, 1) != 1 {
		t.Fatal("column 1 not swapped")
	}
}

func TestMulNaiveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(5, 5, rng)
	got := MulNaive(a, Eye(5))
	if MaxAbsDiff(a, got) > 1e-15 {
		t.Fatal("A*I != A")
	}
	got = MulNaive(Eye(5), a)
	if MaxAbsDiff(a, got) > 1e-15 {
		t.Fatal("I*A != A")
	}
}

func TestNorms(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, -4)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	if a.NormInf() != 7 {
		t.Fatalf("inf norm %v want 7", a.NormInf())
	}
	if a.NormMax() != 4 {
		t.Fatalf("max norm %v want 4", a.NormMax())
	}
	if math.Abs(a.NormFro()-math.Sqrt(27)) > 1e-14 {
		t.Fatalf("fro norm %v", a.NormFro())
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(8, 8, rand.New(rand.NewSource(7)))
	b := Random(8, 8, rand.New(rand.NewSource(7)))
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("same seed must give same matrix")
	}
}

func TestRandomDiagDominant(t *testing.T) {
	a := RandomDiagDominant(10, rand.New(rand.NewSource(5)))
	for i := 0; i < 10; i++ {
		off := 0.0
		for j := 0; j < 10; j++ {
			if j != i {
				off += math.Abs(a.At(i, j))
			}
		}
		if math.Abs(a.At(i, i)) <= off {
			t.Fatalf("row %d not dominant", i)
		}
	}
}

// Property: (A*B)*C == A*(B*C) for the naive oracle.
func TestMulNaiveAssociativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(4, 3, rng)
		b := Random(3, 5, rng)
		c := Random(5, 2, rng)
		left := MulNaive(MulNaive(a, b), c)
		right := MulNaive(a, MulNaive(b, c))
		return MaxAbsDiff(left, right) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: PermuteRows with the identity permutation is a no-op.
func TestPermuteIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rng.Int31n(10))
		a := Random(n, n, rng)
		id := make([]int, n)
		for i := range id {
			id[i] = i
		}
		return MaxAbsDiff(a, PermuteRows(a, id)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFromColMajor(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	a := FromColMajor(2, 3, 2, data)
	if a.At(1, 2) != 6 || a.At(0, 1) != 3 {
		t.Fatal("FromColMajor wrong mapping")
	}
	a.Set(0, 0, 9)
	if data[0] != 9 {
		t.Fatal("FromColMajor must alias")
	}
}

func TestFromColMajorBadStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for stride < rows")
		}
	}()
	FromColMajor(4, 2, 2, make([]float64, 8))
}

func TestZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := Random(4, 4, rng)
	s := a.Slice(1, 3, 1, 3)
	s.Zero()
	if a.At(1, 1) != 0 || a.At(2, 2) != 0 {
		t.Fatal("zero did not clear view")
	}
	if a.At(0, 0) == 0 && a.At(3, 3) == 0 {
		t.Fatal("zero cleared outside view (statistically impossible)")
	}
}

// TestFromRowMajor pins the tiled transpose against At on shapes on
// both sides of the tile size, ragged in both dimensions.
func TestFromRowMajor(t *testing.T) {
	for _, s := range [][2]int{{0, 0}, {1, 1}, {1, 5}, {5, 1}, {3, 7}, {32, 32}, {33, 31}, {70, 100}, {100, 70}} {
		r, c := s[0], s[1]
		data := make([]float64, r*c)
		for k := range data {
			data[k] = float64(k) + 0.5
		}
		a := FromRowMajor(r, c, data)
		if a.Rows != r || a.Cols != c {
			t.Fatalf("%dx%d came back %dx%d", r, c, a.Rows, a.Cols)
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if a.At(i, j) != data[i*c+j] {
					t.Fatalf("%dx%d: (%d,%d) = %v, want %v", r, c, i, j, a.At(i, j), data[i*c+j])
				}
			}
		}
	}
}
