package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// scalarSolveMany runs the scalar oracle column by column.
func scalarSolveMany(t *testing.T, f *Factorization, b *mat.Dense) *mat.Dense {
	t.Helper()
	x := mat.New(b.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		col, err := f.Solve(b.Col(j))
		if err != nil {
			t.Fatalf("scalar solve col %d: %v", j, err)
		}
		copy(x.Col(j), col)
	}
	return x
}

// solveManyResidual is the worst per-column SolveResidual of A X = B.
func solveManyResidual(a *mat.Dense, x, b *mat.Dense) float64 {
	worst := 0.0
	for j := 0; j < b.Cols; j++ {
		if r := SolveResidual(a, x.Col(j), b.Col(j)); r > worst {
			worst = r
		}
	}
	return worst
}

func sameMatrix(t *testing.T, tag string, got, want *mat.Dense) {
	t.Helper()
	for j := 0; j < want.Cols; j++ {
		gc, wc := got.Col(j), want.Col(j)
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("%s: X[%d,%d] differs: %x vs %x",
					tag, i, j, math.Float64bits(gc[i]), math.Float64bits(wc[i]))
			}
		}
	}
}

// TestSolveBlockedMatchesScalarLU is the solve-equivalence suite: the
// blocked multi-RHS solve graph against the scalar substitution oracle,
// across every scheduling policy and 1/4/8 workers, each compared with
// the same solve graph drained serially by one worker (runSerial). The
// graph's dataflow fixes the arithmetic, so every configuration must
// produce BIT-identical solutions; all must satisfy the backward-error
// bound against A.
func TestSolveBlockedMatchesScalarLU(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const n, nrhs = 96, 7
	a := mat.Random(n, n, rng)
	b := mat.Random(n, nrhs, rng)
	f, err := Factor(a, Options{Block: 16, Workers: 4, Scheduler: ScheduleHybrid, DynamicRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	oracle := scalarSolveMany(t, f, b)
	if r := solveManyResidual(a, oracle, b); r > 1e-10 {
		t.Fatalf("scalar oracle residual %g", r)
	}

	var ref *mat.Dense
	for _, workers := range []int{1, 4, 8} {
		serial := serialSolve(t, f.PrepareSolve, b, Options{Block: 16, Workers: workers})
		if ref == nil {
			ref = serial
		} else {
			sameMatrix(t, fmt.Sprintf("serial/w%d", workers), serial, ref)
		}
		for _, s := range allSchedulers {
			x, err := f.SolveMany(b, Options{
				Block: 16, Workers: workers, Scheduler: s,
				DynamicRatio: 0.3,
			})
			tag := fmt.Sprintf("%v/w%d", s, workers)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			sameMatrix(t, tag, x, ref)
			if r := solveManyResidual(a, x, b); r > 1e-10 {
				t.Fatalf("%s: residual %g", tag, r)
			}
		}
	}
	// Blocked and scalar differ only by floating-point reassociation.
	for j := 0; j < nrhs; j++ {
		oc, rc := oracle.Col(j), ref.Col(j)
		for i := range oc {
			if d := math.Abs(oc[i] - rc[i]); d > 1e-9*math.Max(1, math.Abs(oc[i])) {
				t.Fatalf("blocked vs scalar col %d row %d: %g vs %g", j, i, rc[i], oc[i])
			}
		}
	}
}

// TestSolveBlockedMatchesScalarCholesky repeats the equivalence suite
// on the Cholesky path: same solve-graph shape, non-unit forward sweep
// on L, backward sweep on the materialized Lᵀ.
func TestSolveBlockedMatchesScalarCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const n, nrhs = 80, 5
	a := RandomSPD(n, 7)
	b := mat.Random(n, nrhs, rng)
	f, err := FactorCholesky(a, Options{Block: 16, Workers: 4, Scheduler: ScheduleHybrid, DynamicRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	oracle := mat.New(n, nrhs)
	for j := 0; j < nrhs; j++ {
		col, err := f.Solve(b.Col(j))
		if err != nil {
			t.Fatalf("scalar cholesky solve col %d: %v", j, err)
		}
		copy(oracle.Col(j), col)
	}
	if r := solveManyResidual(a, oracle, b); r > 1e-10 {
		t.Fatalf("scalar oracle residual %g", r)
	}

	var ref *mat.Dense
	for _, workers := range []int{1, 4, 8} {
		serial := serialSolve(t, f.PrepareSolve, b, Options{Block: 16, Workers: workers})
		if ref == nil {
			ref = serial
		} else {
			sameMatrix(t, fmt.Sprintf("serial/w%d", workers), serial, ref)
		}
		for _, s := range allSchedulers {
			x, err := f.SolveMany(b, Options{
				Block: 16, Workers: workers, Scheduler: s,
				DynamicRatio: 0.3,
			})
			tag := fmt.Sprintf("%v/w%d", s, workers)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			sameMatrix(t, tag, x, ref)
			if r := solveManyResidual(a, x, b); r > 1e-10 {
				t.Fatalf("%s: residual %g", tag, r)
			}
		}
	}
}

// TestSolveDegradedPrefixTypedError: a degraded factorization — U
// prefix-padded with zero diagonals past the factored prefix, the shape
// PR 3's singular-chunk fallback leaves behind — must be reported by
// every solve entry point as a *SingularSolveError carrying the
// factored-prefix length, not an opaque string error.
func TestSolveDegradedPrefixTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const n, prefix = 64, 40
	a := mat.Random(n, n, rng)
	f, err := Factor(a, Options{Block: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Degrade: wipe the factored tail, as a prefix fallback that ran out
	// of pivots would.
	for j := prefix; j < n; j++ {
		for i := 0; i <= j; i++ {
			f.U.Set(i, j, 0)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	checkErr := func(tag string, err error) {
		t.Helper()
		var se *SingularSolveError
		if !errors.As(err, &se) {
			t.Fatalf("%s: want *SingularSolveError, got %v", tag, err)
		}
		if se.Prefix != prefix || se.N != n {
			t.Fatalf("%s: want prefix %d of %d, got %d of %d", tag, prefix, n, se.Prefix, se.N)
		}
	}
	_, err = f.Solve(b)
	checkErr("scalar", err)
	bm := mat.FromColMajor(n, 1, n, b)
	_, err = f.SolveMany(bm, Options{Block: 16, Workers: 2})
	checkErr("blocked", err)
	_, err = f.PrepareSolve(bm, Options{Block: 16})
	checkErr("prepare", err)

	// Cholesky flavour: zero tail of L's diagonal.
	spd := RandomSPD(48, 5)
	cf, err := FactorCholesky(spd, Options{Block: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j := 30; j < 48; j++ {
		cf.L.Set(j, j, 0)
	}
	_, err = cf.Solve(make([]float64, 48))
	var se *SingularSolveError
	if !errors.As(err, &se) || se.Prefix != 30 {
		t.Fatalf("cholesky scalar: want prefix 30, got %v", err)
	}
	_, err = cf.SolveMany(mat.New(48, 2), Options{Block: 16})
	if !errors.As(err, &se) || se.Prefix != 30 || se.N != 48 {
		t.Fatalf("cholesky blocked: want prefix 30 of 48, got %v", err)
	}
}

// TestSolvePropertyRagged drives the blocked solve through randomized
// ragged shapes — n not a multiple of the block, single and many RHS,
// odd blocks, every scheduler — against the scalar oracle.
func TestSolvePropertyRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	cases := 18
	if testing.Short() {
		cases = 8
	}
	for c := 0; c < cases; c++ {
		n := 5 + rng.Intn(93)
		nrhs := 1 + rng.Intn(9)
		block := []int{5, 8, 16, 24, 32}[rng.Intn(5)]
		workers := 1 + rng.Intn(4)
		s := allSchedulers[rng.Intn(len(allSchedulers))]
		a := mat.RandomDiagDominant(n, rng)
		b := mat.Random(n, nrhs, rng)
		f, err := Factor(a, Options{Block: block, Workers: workers})
		if err != nil {
			t.Fatalf("case %d (n=%d b=%d w=%d): factor: %v", c, n, block, workers, err)
		}
		oracle := scalarSolveMany(t, f, b)
		x, err := f.SolveMany(b, Options{
			Block: block, Workers: workers, Scheduler: s, DynamicRatio: 0.3,
		})
		if err != nil {
			t.Fatalf("case %d (n=%d nrhs=%d b=%d w=%d %v): %v", c, n, nrhs, block, workers, s, err)
		}
		if r := solveManyResidual(a, x, b); r > 1e-10 {
			t.Fatalf("case %d (n=%d nrhs=%d b=%d w=%d %v): residual %g", c, n, nrhs, block, workers, s, r)
		}
		for j := 0; j < nrhs; j++ {
			oc, xc := oracle.Col(j), x.Col(j)
			for i := range oc {
				if d := math.Abs(oc[i] - xc[i]); d > 1e-8*math.Max(1, math.Abs(oc[i])) {
					t.Fatalf("case %d col %d row %d: blocked %g vs scalar %g", c, j, i, xc[i], oc[i])
				}
			}
		}
	}
}
