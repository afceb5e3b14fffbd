package core

import (
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
)

// CholeskyFactorization is the result of FactorCholesky: A = L*L^T.
// The factors are treated as immutable once solves begin: the blocked
// backward sweep caches a materialized Lᵀ on first use.
type CholeskyFactorization struct {
	L *mat.Dense // n x n lower triangular
	RunRecord

	// ltOnce/ltCache materialize Lᵀ once for the blocked backward
	// sweep; recomputing the O(n²) transpose per solve would rival the
	// solve itself for single-RHS requests.
	ltOnce  sync.Once
	ltCache *mat.Dense
}

// N is the order of A.
func (f *CholeskyFactorization) N() int { return f.L.Rows }

// SizeBytes charges L and the n x n Lᵀ its first solve materializes and
// keeps for the factor's lifetime, so a solved factorization costs what
// it was charged before its first solve.
func (f *CholeskyFactorization) SizeBytes() int64 { return 2 * int64(len(f.L.Data)) * 8 }

// lt returns the materialized transpose of L (upper triangular),
// built once. Safe for concurrent solve preparations.
func (f *CholeskyFactorization) lt() *mat.Dense {
	f.ltOnce.Do(func() {
		n := f.L.Rows
		u := mat.New(n, n)
		for j := 0; j < n; j++ {
			lj := f.L.Col(j)
			for i := j; i < n; i++ {
				u.Set(j, i, lj[i])
			}
		}
		f.ltCache = u
	})
	return f.ltCache
}

// FactorCholesky computes the Cholesky factorization A = L*L^T of a
// symmetric positive definite matrix under the same layout and hybrid
// static/dynamic scheduling machinery as CALU — the section 9
// future-work item realized. Only the lower triangle of a is read.
func FactorCholesky(a *mat.Dense, opt Options) (*CholeskyFactorization, error) {
	return run(PrepareCholesky(a, opt))
}

// PrepareCholesky builds the tiled Cholesky graph for factoring a
// (which is not modified) under opt.
func PrepareCholesky(a *mat.Dense, opt Options) (*CholeskyJob, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	opt.fill()
	grid := layout.NewGrid(opt.Workers)
	l := layout.New(opt.Layout, a, opt.Block, grid)
	_, nb := l.Blocks()
	cg := dag.BuildCholesky(l, dag.CALUOptions{NstaticCols: opt.NstaticCols(nb)})
	return newJob(opt, cg.Graph, func(rec RunRecord) *CholeskyFactorization {
		n, _, b := cg.Layout.Dims()
		lf := mat.New(n, n)
		layout.WalkColumns(cg.Layout, func(bi, bj int, run kernel.View) {
			splitBlock(lf, nil, run, bi*b, bj*b, 0)
		})
		return &CholeskyFactorization{L: lf, RunRecord: rec}
	})
}

// CholeskyResidual returns ||A - L*L^T||_max / (||A||_max * n), reading
// only the lower triangle of a (the factorization never touched the
// strict upper triangle).
func CholeskyResidual(a *mat.Dense, f *CholeskyFactorization) float64 {
	n := a.Rows
	llt := mat.New(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += f.L.At(i, k) * f.L.At(j, k)
			}
			llt.Set(i, j, s)
		}
	}
	maxDiff := 0.0
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			d := a.At(i, j) - llt.At(i, j)
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	denom := a.NormMax() * float64(n)
	if denom == 0 {
		denom = 1
	}
	return maxDiff / denom
}

// Solve solves A x = b for one right-hand side with scalar
// substitution: L y = b, L^T x = y. It is the sequential oracle of the
// blocked multi-RHS path (SolveMany / PrepareSolve). A zero diagonal
// in L yields a *SingularSolveError carrying the factored prefix.
func (f *CholeskyFactorization) Solve(b []float64) ([]float64, error) {
	n := f.L.Rows
	if len(b) != n {
		return nil, fmt.Errorf("core: rhs length %d != %d", len(b), n)
	}
	if p := diagPrefix(f.L); p < n {
		return nil, &SingularSolveError{Prefix: p, N: n}
	}
	y := make([]float64, n)
	copy(y, b)
	for j := 0; j < n; j++ {
		y[j] /= f.L.At(j, j)
		for i := j + 1; i < n; i++ {
			y[i] -= f.L.At(i, j) * y[j]
		}
	}
	for j := n - 1; j >= 0; j-- {
		y[j] /= f.L.At(j, j)
		for i := 0; i < j; i++ {
			y[i] -= f.L.At(j, i) * y[j]
		}
	}
	return y, nil
}

// RandomSPD returns a random symmetric positive definite matrix
// B^T B + n*I for Cholesky tests and examples.
func RandomSPD(n int, seed int64) *mat.Dense {
	b := mat.FromColMajor(n, n, n, randomData(n*n, seed))
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
	return a
}

func randomData(n int, seed int64) []float64 {
	// Small linear congruential stream: deterministic without pulling
	// math/rand into the hot path of test setup.
	out := make([]float64, n)
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = float64(int64(x>>11))/float64(1<<52) - 0.5
	}
	return out
}
