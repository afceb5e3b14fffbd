package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestFactorGEPPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mat.Random(96, 96, rng)
	f, err := FactorGEPP(a, Options{Block: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > 1e-10 {
		t.Fatalf("GEPP residual %g", r)
	}
}

func TestFactorGEPPRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range [][2]int{{100, 40}, {40, 100}, {50, 50}, {33, 57}} {
		a := mat.Random(s[0], s[1], rng)
		f, err := FactorGEPP(a, Options{Block: 16, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r := Residual(a, f); r > 1e-10 {
			t.Errorf("%v: residual %g", s, r)
		}
	}
}

func TestFactorGEPPExactlyMatchesSequentialPivoting(t *testing.T) {
	// GEPP is deterministic: the parallel DAG execution must produce
	// exactly the same pivots as the sequential reference.
	rng := rand.New(rand.NewSource(4))
	a := mat.Random(64, 64, rng)
	ref, err := ReferenceLU(a)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FactorGEPP(a, Options{Block: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Perm {
		if ref.Perm[i] != f.Perm[i] {
			t.Fatalf("pivoting differs from reference at row %d", i)
		}
	}
	if mat.MaxAbsDiff(ref.U, f.U) > 1e-9 {
		t.Fatal("U factors differ from the sequential reference")
	}
}

func TestSolveIncPiv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 96
	a := mat.Random(n, n, rng)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := 0; i < n; i++ {
			b[i] += col[i] * xTrue[j]
		}
	}
	sol, err := SolveIncPiv(a, b, Options{Block: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := sol.X.Col(0)
	if r := SolveResidual(a, x, b); r > 1e-8 {
		t.Fatalf("incpiv solve residual %g", r)
	}
	maxErr := 0.0
	for i := range x {
		maxErr = math.Max(maxErr, math.Abs(x[i]-xTrue[i]))
	}
	if maxErr > 1e-5 {
		t.Fatalf("incpiv solution error %g", maxErr)
	}
	if sol.Stats.Total == 0 {
		t.Fatal("no task stats recorded")
	}
}

func TestSolveIncPivRaggedTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 50 // not a multiple of the tile size
	a := mat.RandomDiagDominant(n, rng)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sol, err := SolveIncPiv(a, b, Options{Block: 16, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r := SolveResidual(a, sol.X.Col(0), b); r > 1e-8 {
		t.Fatalf("ragged incpiv residual %g", r)
	}
}

func TestSolveIncPivRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := SolveIncPiv(mat.Random(10, 8, rng), make([]float64, 10), Options{}); err == nil {
		t.Fatal("non-square A accepted")
	}
	if _, err := SolveIncPiv(mat.Random(8, 8, rng), make([]float64, 5), Options{}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestGEPPDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := mat.Random(40, 40, rng)
	f, err := FactorGEPP(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > 1e-10 {
		t.Fatalf("default options residual %g", r)
	}
}

// Property: both baselines solve random diagonally dominant systems to
// tight accuracy at random sizes, blocks and worker counts.
func TestBaselinesSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + int(rng.Int31n(80))
		a := mat.RandomDiagDominant(n, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		blk := 8 + int(rng.Int31n(16))
		w := 1 + int(rng.Int31n(4))
		fac, err := FactorGEPP(a, Options{Block: blk, Workers: w})
		if err != nil {
			return false
		}
		xg, err := fac.Solve(b)
		if err != nil || SolveResidual(a, xg, b) > 1e-9 {
			return false
		}
		xi, err := SolveIncPiv(a, b, Options{Block: blk, Workers: w})
		if err != nil || SolveResidual(a, xi.X.Col(0), b) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The graphs' dataflow fixes the baselines' arithmetic completely:
// GEPP's P, L and U and IncPiv's x are bit-identical across worker
// counts and schedulers.
func TestBaselinesBitIdenticalAcrossWorkersAndSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := mat.Random(150, 150, rng)
	b := make([]float64, 150)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var ref [4]uint64
	for w := 1; w <= 4; w++ {
		for _, sch := range []Scheduler{ScheduleStatic, ScheduleDynamic, ScheduleHybrid} {
			opt := Options{Block: 32, Workers: w, Scheduler: sch, DynamicRatio: 0.25}
			f, err := FactorGEPP(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := SolveIncPiv(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := [4]uint64{hashInts(f.Perm), hashDense(f.L), hashDense(f.U), hashDense(sol.X)}
			if ref == [4]uint64{} {
				ref = got
			} else if got != ref {
				t.Errorf("W=%d %s: GEPP perm/L/U and IncPiv x hash %016x, want %016x as at W=1 static", w, sch, got, ref)
			}
		}
	}
}
