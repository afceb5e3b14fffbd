package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/layout"
	"repro/internal/mat"
)

func TestCholeskyAllLayoutsAllSchedulers(t *testing.T) {
	a := RandomSPD(96, 3)
	for _, kind := range []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel} {
		for _, sch := range []Scheduler{ScheduleStatic, ScheduleDynamic, ScheduleHybrid} {
			f, err := FactorCholesky(a, Options{
				Layout: kind, Block: 16, Workers: 4,
				Scheduler: sch, DynamicRatio: 0.25,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", kind, sch, err)
			}
			if r := CholeskyResidual(a, f); r > 1e-12 {
				t.Errorf("%v/%v: residual %g", kind, sch, r)
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	n := 80
	a := RandomSPD(n, 5)
	f, err := FactorCholesky(a, Options{Layout: layout.BCL, Block: 16, Workers: 3, Scheduler: ScheduleHybrid, DynamicRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetrize a for the residual helper (only lower was guaranteed).
	if r := SolveResidual(a, x, b); r > 1e-12 {
		t.Fatalf("cholesky solve residual %g", r)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := FactorCholesky(mat.Random(10, 8, rng), Options{}); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := mat.New(8, 8) // zero matrix is not SPD
	if _, err := FactorCholesky(a, Options{Block: 4, Workers: 1}); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestCholeskyRagged(t *testing.T) {
	a := RandomSPD(50, 7) // 50 is not a multiple of 16
	f, err := FactorCholesky(a, Options{Layout: layout.TwoLevel, Block: 16, Workers: 2, Scheduler: ScheduleDynamic})
	if err != nil {
		t.Fatal(err)
	}
	if r := CholeskyResidual(a, f); r > 1e-12 {
		t.Fatalf("ragged residual %g", r)
	}
}

func TestCholeskyDiagonalPositive(t *testing.T) {
	a := RandomSPD(40, 9)
	f, err := FactorCholesky(a, Options{Block: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if f.L.At(i, i) <= 0 {
			t.Fatalf("L[%d,%d] = %g not positive", i, i, f.L.At(i, i))
		}
	}
	// Strict upper triangle of L must be zero.
	for j := 1; j < 40; j++ {
		for i := 0; i < j; i++ {
			if f.L.At(i, j) != 0 {
				t.Fatalf("L[%d,%d] = %g above diagonal", i, j, f.L.At(i, j))
			}
		}
	}
}

func TestRandomSPDIsSPD(t *testing.T) {
	a := RandomSPD(30, 11)
	// Symmetric.
	for j := 0; j < 30; j++ {
		for i := 0; i < 30; i++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > 1e-12 {
				t.Fatal("RandomSPD not symmetric")
			}
		}
	}
	// Positive diagonal dominance implied by +n*I shift.
	for i := 0; i < 30; i++ {
		if a.At(i, i) <= 0 {
			t.Fatal("RandomSPD non-positive diagonal")
		}
	}
}

// Property: Cholesky under random layouts, schedulers, blocks and
// worker counts always reconstructs A to machine precision.
func TestCholeskyProperty(t *testing.T) {
	kinds := []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel}
	scheds := []Scheduler{ScheduleStatic, ScheduleDynamic, ScheduleHybrid}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + int(rng.Int31n(60))
		a := RandomSPD(n, seed)
		fac, err := FactorCholesky(a, Options{
			Layout: kinds[rng.Intn(3)], Block: 8 + int(rng.Int31n(12)),
			Workers: 1 + int(rng.Int31n(4)), Scheduler: scheds[rng.Intn(3)],
			DynamicRatio: rng.Float64(),
		})
		if err != nil {
			return false
		}
		return CholeskyResidual(a, fac) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
