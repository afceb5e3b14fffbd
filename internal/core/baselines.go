package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
)

// The two library comparison points of the paper's section 5.3, run
// through the same Prepared path as CALU, so opt's Block, Workers,
// Scheduler, DynamicRatio, Trace and Noise apply to them too. The
// Figure 16/17 experiments simulate the same graphs, built from a
// layout.Shape by dag.NewGEPP and dag.NewIncPiv.

// FactorGEPP computes PA = LU of a (which is not modified) with blocked
// Gaussian elimination with partial pivoting and a sequential panel
// factorization: structurally the multithreaded LAPACK/MKL-10.3-era
// dgetrf, whose panel sits on the critical path and waits for the whole
// previous update (no look-ahead). It always runs column major, as MKL
// does; opt.Layout is ignored.
func FactorGEPP(a *mat.Dense, opt Options) (*Factorization, error) {
	opt.fill()
	l := layout.New(layout.CM, a, opt.Block, layout.NewGrid(opt.Workers))
	gg := dag.BuildGEPP(l)
	return run(luJob(opt, gg.Graph, l, gg.StepSwaps))
}

// SolveIncPiv solves A x = b with tiled LU with incremental pivoting:
// structurally PLASMA 2.3's dgetrf_incpiv, which takes the panel off
// the critical path but pays extra update flops and a weaker pivoting
// scheme (the stability caveat the paper cites). Its transformations
// interleave across tiles, so no explicit (P, L, U) exists; b rides
// along as an extra tile column, so every GESSM/SSSSM transformation
// applies to it as PLASMA's dgetrs_incpiv would, and the result's X is
// the n x 1 solution. It always runs over 2l-BL tiles, as PLASMA
// stores them; opt.Layout is ignored. A and b are not modified; a zero
// diagonal in U yields a *SingularSolveError.
func SolveIncPiv(a *mat.Dense, b []float64, opt Options) (*Solution, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("core: incpiv solve requires square A, got %dx%d", n, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("core: rhs length %d != %d", len(b), n)
	}
	opt.fill()
	aug := mat.New(n, n+1)
	aug.Slice(0, n, 0, n).CopyFrom(a)
	copy(aug.Col(n), b)
	l := layout.New(layout.TwoLevel, aug, opt.Block, layout.NewGrid(opt.Workers))
	sol, err := run(newJob(opt, dag.BuildIncPiv(l).Graph, func(rec RunRecord) *Solution {
		return &Solution{X: l.ToDense(), RunRecord: rec}
	}))
	if err != nil {
		return nil, err
	}
	// sol.X is the factored [U | L^{-1} P b]; back-substitute with U.
	u := sol.X.Slice(0, n, 0, n)
	if p := diagPrefix(u); p < n {
		return nil, &SingularSolveError{Prefix: p, N: n}
	}
	sol.X = sol.X.Slice(0, n, n, n+1)
	kernel.TrsmUpperLeft(viewOf(u), viewOf(sol.X))
	return sol, nil
}

// viewOf is the kernel view of a dense matrix.
func viewOf(d *mat.Dense) kernel.View {
	return kernel.View{Rows: d.Rows, Cols: d.Cols, Stride: d.Stride, Data: d.Data}
}
