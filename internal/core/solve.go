package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/mat"
)

// SingularSolveError reports a solve against a degraded factorization:
// one whose triangular factor carries an exactly zero diagonal entry
// (the prefix-padded output of a factorization that absorbed a singular
// tournament chunk, or a hand-assembled partial factorization). Like
// *kernel.SingularError it carries the factored-prefix length, so
// callers — the engine, hsdserve — can report how much of the system is
// solvable instead of an opaque failure.
type SingularSolveError struct {
	// Prefix is the factored-prefix length: the leading Prefix unknowns
	// form the largest nonsingular leading subsystem.
	Prefix int
	// N is the order of the full system.
	N int
}

// Error implements error.
func (e *SingularSolveError) Error() string {
	return fmt.Sprintf("core: singular system: zero diagonal at %d, only the leading %d of %d unknowns are determined", e.Prefix, e.Prefix, e.N)
}

// diagPrefix returns the length of the leading nonzero-diagonal prefix
// of a square triangular factor: the first index with a zero diagonal,
// or n if there is none.
func diagPrefix(t *mat.Dense) int {
	n := min(t.Rows, t.Cols)
	for j := 0; j < n; j++ {
		if t.At(j, j) == 0 {
			return j
		}
	}
	return n
}

// Solution is the result of a blocked triangular solve: the solution
// block plus the run metadata the factorization result also carries.
type Solution struct {
	// X is the n x nrhs solution block (column j solves column j of B).
	X *mat.Dense
	RunRecord
}

// prepareSolve builds a solve job over explicit lower/upper triangles:
// x0 is the already permuted/copied RHS block that will be solved in
// place.
func prepareSolve(lower, upper, x0 *mat.Dense, unitLower bool, opt Options) (*SolveJob, error) {
	opt.fill()
	nb := (x0.Rows + opt.Block - 1) / opt.Block
	sg := dag.BuildSolve(lower, upper, x0, dag.SolveOptions{
		Block:       opt.Block,
		Workers:     opt.Workers,
		NstaticCols: opt.NstaticCols(nb),
		UnitLower:   unitLower,
	})
	return newJob(opt, sg.Graph, func(rec RunRecord) *Solution {
		return &Solution{X: sg.X, RunRecord: rec}
	})
}

// checkRHS validates an n-row right-hand-side block.
func checkRHS(b *mat.Dense, n int) error {
	if b == nil || b.Cols == 0 {
		return fmt.Errorf("core: solve needs a non-empty right-hand side")
	}
	if b.Rows != n {
		return fmt.Errorf("core: rhs has %d rows, system has %d", b.Rows, n)
	}
	return nil
}

// PrepareSolve builds the blocked triangular-solve graph for A X = B
// using the factorization (X = U^{-1} L^{-1} P B), without executing
// it: the multi-RHS counterpart of PrepareFactor, consumed either by
// SolveMany (one-shot rt.Run) or by the engine's solve jobs.
// B is not modified. A degraded factorization (zero diagonal in U) is
// rejected up front with a *SingularSolveError carrying the factored
// prefix.
func (f *Factorization) PrepareSolve(b *mat.Dense, opt Options) (*SolveJob, error) {
	m := f.L.Rows
	n := f.U.Cols
	if m != n {
		return nil, fmt.Errorf("core: solve requires a square factorization, got %dx%d", m, n)
	}
	if err := checkRHS(b, n); err != nil {
		return nil, err
	}
	if p := diagPrefix(f.U); p < n {
		return nil, &SingularSolveError{Prefix: p, N: n}
	}
	// x = P b.
	x := mat.New(n, b.Cols)
	for j := 0; j < b.Cols; j++ {
		src := b.Col(j)
		dst := x.Col(j)
		for i := 0; i < n; i++ {
			dst[i] = src[f.Perm[i]]
		}
	}
	return prepareSolve(f.L, f.U, x, true, opt)
}

// SolveMany solves A X = B for an n x nrhs block of right-hand sides
// through the blocked two-sweep solve graph, executed one-shot under
// opt's scheduler/layout-independent knobs (Block, Workers, Scheduler,
// DynamicRatio). B is not modified. The graph's dataflow fixes the
// arithmetic, so the result is bit-identical across schedulers and
// worker counts.
func (f *Factorization) SolveMany(b *mat.Dense, opt Options) (*mat.Dense, error) {
	return runSolve(f.PrepareSolve(b, opt))
}

// PrepareSolve is the Cholesky counterpart of Factorization.
// PrepareSolve: A X = B via L Y = B then Lᵀ X = Y, both sweeps on the
// same solve-graph shape (the backward sweep reads the transpose of L,
// materialized once per factorization and cached).
func (f *CholeskyFactorization) PrepareSolve(b *mat.Dense, opt Options) (*SolveJob, error) {
	n := f.L.Rows
	if err := checkRHS(b, n); err != nil {
		return nil, err
	}
	if p := diagPrefix(f.L); p < n {
		return nil, &SingularSolveError{Prefix: p, N: n}
	}
	x := mat.New(n, b.Cols)
	x.CopyFrom(b)
	return prepareSolve(f.L, f.lt(), x, false, opt)
}

// SolveMany solves A X = B for a block of right-hand sides using the
// Cholesky factors, through the same blocked solve graph as LU.
func (f *CholeskyFactorization) SolveMany(b *mat.Dense, opt Options) (*mat.Dense, error) {
	return runSolve(f.PrepareSolve(b, opt))
}

// runSolve executes a prepared solve job one-shot and returns X.
func runSolve(j *SolveJob, err error) (*mat.Dense, error) {
	sol, err := run(j, err)
	if err != nil {
		return nil, err
	}
	return sol.X, nil
}
