package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
)

// allSchedulers enumerates every scheduling policy; the singular-input
// semantics of Factor must not depend on how tasks are dispatched.
var allSchedulers = []Scheduler{ScheduleStatic, ScheduleDynamic, ScheduleHybrid}

// factorAll runs Factor under every scheduler and hands each result to
// check.
func factorAll(t *testing.T, a *mat.Dense, opt Options, check func(s Scheduler, f *Factorization, err error)) {
	t.Helper()
	for _, s := range allSchedulers {
		opt.Scheduler = s
		opt.DynamicRatio = 0.25
		f, err := Factor(a, opt)
		check(s, f, err)
	}
}

// TestFactorSingularChunkRecovers is the headline bugfix case: the
// first tournament chunk of the first panel is exactly singular (a
// zero-row region leaves it rank 4 over an 8-wide panel), which used to
// abort the whole factorization even though plain GEPP handles the
// matrix fine. With the selection's prefix fallback the tournament fields
// padded contestants and the factorization completes with a normal
// residual.
func TestFactorSingularChunkRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := mat.Random(64, 64, rng)
	// Workers=4 gives a 2x2 grid, so panel 0 splits into two 32-row
	// chunks. Blank the panel columns of rows 4..31: chunk 0's 32x8 GEPP
	// then hits an exactly zero pivot at column 4. The rows keep random
	// values in columns 8..63, so the matrix itself stays nonsingular.
	for i := 4; i < 32; i++ {
		for j := 0; j < 8; j++ {
			a.Set(i, j, 0)
		}
	}
	ref, err := ReferenceLU(a)
	if err != nil {
		t.Fatalf("reference GEPP must handle this matrix: %v", err)
	}
	if r := Residual(a, ref); r > tol {
		t.Fatalf("reference residual %g", r)
	}
	for _, kind := range []layout.Kind{layout.BCL, layout.TwoLevel} {
		factorAll(t, a, Options{Layout: kind, Block: 8, Workers: 4}, func(s Scheduler, f *Factorization, err error) {
			if err != nil {
				t.Fatalf("%v/%v: singular chunk aborted the factorization: %v", kind, s, err)
			}
			if r := Residual(a, f); r > tol {
				t.Errorf("%v/%v: residual %g after chunk fallback", kind, s, r)
			}
		})
	}
}

// TestFactorDuplicatedRowsInChunk covers the duplicate-row flavour of a
// degenerate chunk: rows whose panel-column prefixes coincide exactly.
// Whether the chunk's GEPP cancellation is exact (triggering the
// fallback) or leaves ulp-level residue, Factor must complete and match
// the reference residual-wise.
func TestFactorDuplicatedRowsInChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := mat.Random(64, 64, rng)
	for i := 1; i < 24; i++ {
		for j := 0; j < 8; j++ {
			a.Set(i, j, a.At(0, j))
		}
	}
	if _, err := ReferenceLU(a); err != nil {
		t.Fatalf("reference GEPP must handle duplicated prefixes: %v", err)
	}
	factorAll(t, a, Options{Layout: layout.BCL, Block: 8, Workers: 4}, func(s Scheduler, f *Factorization, err error) {
		if err != nil {
			t.Fatalf("%v: duplicated rows aborted the factorization: %v", s, err)
		}
		if r := Residual(a, f); r > tol {
			t.Errorf("%v: residual %g", s, r)
		}
	})
}

// TestFactorZeroColumnMatchesReference: a matrix with an exactly zero
// column is rank deficient in a way no pivoting strategy can absorb.
// Factor must degrade exactly like ReferenceLU — an error return, never
// a panic or a silent bogus factorization.
func TestFactorZeroColumnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := mat.Random(48, 48, rng)
	for i := 0; i < 48; i++ {
		a.Set(i, 20, 0)
	}
	_, refErr := ReferenceLU(a)
	var se *kernel.SingularError
	if !errors.As(refErr, &se) || se.K != 20 {
		t.Fatalf("reference: want SingularError at column 20, got %v", refErr)
	}
	factorAll(t, a, Options{Layout: layout.BCL, Block: 16, Workers: 4}, func(s Scheduler, f *Factorization, err error) {
		if err == nil {
			t.Fatalf("%v: factored a matrix with a zero column (residual would be meaningless)", s)
		}
	})
}

// TestFactorRankDeficientMatchesReference: rank r < n via a zero-row
// block. Reference GEPP fails at column r; every scheduler must fail
// too (gracefully), because past column r no chunk anywhere can field a
// nonzero pivot.
func TestFactorRankDeficientMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := mat.New(64, 64)
	a.Slice(0, 40, 0, 64).CopyFrom(mat.Random(40, 64, rng))
	_, refErr := ReferenceLU(a)
	var se *kernel.SingularError
	if !errors.As(refErr, &se) || se.K != 40 {
		t.Fatalf("reference: want SingularError at column 40, got %v", refErr)
	}
	factorAll(t, a, Options{Layout: layout.BCL, Block: 16, Workers: 4}, func(s Scheduler, f *Factorization, err error) {
		if err == nil {
			t.Fatalf("%v: factored a rank-40 matrix of order 64", s)
		}
	})
}

// TestFactorNumericallyRankDeficient: a product of thin factors is
// rank deficient in exact arithmetic but carries ulp-level noise, so
// partial pivoting marches through tiny pivots. Backward stability
// still holds; Factor and the reference must both succeed with small
// residuals.
func TestFactorNumericallyRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	b := mat.Random(64, 40, rng)
	c := mat.Random(40, 64, rng)
	a := mat.MulNaive(b, c)
	ref, refErr := ReferenceLU(a)
	factorAll(t, a, Options{Layout: layout.BCL, Block: 16, Workers: 4}, func(s Scheduler, f *Factorization, err error) {
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%v: behavior diverged from reference: ref=%v factor=%v", s, refErr, err)
		}
		if err == nil {
			if r := Residual(a, f); r > 1e-7 {
				t.Errorf("%v: residual %g", s, r)
			}
		}
	})
	if refErr == nil {
		if r := Residual(a, ref); r > 1e-7 {
			t.Errorf("reference residual %g", r)
		}
	}
}
