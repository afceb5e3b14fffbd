// Package repro is the public facade of the reproduction of Donfack,
// Grigori, Gropp and Kale, "Hybrid static/dynamic scheduling for
// already optimized dense matrix factorization" (IPDPS 2012).
//
// The library implements communication-avoiding LU factorization
// (CALU) with tournament pivoting over three data layouts (column
// major, block cyclic, two-level blocks), scheduled by fully static,
// fully dynamic or hybrid static/dynamic (the paper's contribution)
// policies; the MKL-style and PLASMA-style baselines the paper compares
// against; tiled Cholesky under the same schedulers; a resident engine
// that runs many jobs on one worker pool; and the experiment harness
// that regenerates every figure and table of the evaluation section.
//
// The examples are the tour, and go test checks their output:
// Example (factor, check, solve), ExampleFactor (the three layouts),
// Example_linsolve (CALU against the two baselines),
// ExampleFactorization_SolveMany (blocked multi-RHS solves),
// ExampleFactorCholesky, ExampleNewEngine (the resident pool),
// ExampleExperimentIDs and ExampleRunExperiment.
//
// See DESIGN.md for the system inventory; README.md and CHANGES.md
// carry the measured-performance record.
package repro

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/mat"
)

// Matrix is a dense column-major matrix.
type Matrix = mat.Dense

// NewMatrix allocates an r x c zero matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// RandomMatrix returns an r x c matrix with uniform entries in [-1,1)
// drawn from a deterministic seed.
func RandomMatrix(r, c int, seed int64) *Matrix {
	return mat.Random(r, c, rand.New(rand.NewSource(seed)))
}

// Layout kinds (paper section 4).
const (
	// LayoutColMajor is the classic LAPACK column-major storage ("CM").
	LayoutColMajor = layout.CM
	// LayoutBlockCyclic is the block cyclic layout ("BCL").
	LayoutBlockCyclic = layout.BCL
	// LayoutTwoLevel is the two-level block layout ("2l-BL").
	LayoutTwoLevel = layout.TwoLevel
)

// Scheduling strategies (paper Table 1).
const (
	// ScheduleStatic is fully static owner-computes scheduling.
	ScheduleStatic = core.ScheduleStatic
	// ScheduleDynamic is fully dynamic shared-queue scheduling.
	ScheduleDynamic = core.ScheduleDynamic
	// ScheduleHybrid is the paper's hybrid static/dynamic strategy.
	ScheduleHybrid = core.ScheduleHybrid
)

// Options configures Factor. See core.Options for field documentation.
type Options = core.Options

// Factorization is the result of Factor: PA = LU plus run metadata.
type Factorization = core.Factorization

// Factor computes the CALU factorization of a with the requested
// layout, block size, worker count and scheduling strategy.
func Factor(a *Matrix, opt Options) (*Factorization, error) { return core.Factor(a, opt) }

// Residual returns the normalized backward error ||PA-LU|| of a
// factorization; values near machine epsilon indicate success.
func Residual(a *Matrix, f *Factorization) float64 { return core.Residual(a, f) }

// SolveResidual returns the normalized residual of a solve.
func SolveResidual(a *Matrix, x, b []float64) float64 { return core.SolveResidual(a, x, b) }

// Solution is the result of a blocked multi-RHS solve: the solution
// block plus run metadata.
type Solution = core.Solution

// ReferenceLU is the sequential GEPP oracle.
func ReferenceLU(a *Matrix) (*Factorization, error) { return core.ReferenceLU(a) }

// FactorGEPP runs the MKL-style blocked LU baseline (sequential panel,
// column major; opt.Layout is ignored).
func FactorGEPP(a *Matrix, opt Options) (*Factorization, error) { return core.FactorGEPP(a, opt) }

// SolveIncPiv solves A x = b with the PLASMA-style incremental-pivoting
// tiled LU baseline (2l-BL tiles; opt.Layout is ignored).
func SolveIncPiv(a *Matrix, b []float64, opt Options) ([]float64, error) {
	sol, err := core.SolveIncPiv(a, b, opt)
	if err != nil {
		return nil, err
	}
	return sol.X.Col(0), nil
}

// ExperimentIDs lists every reproducible experiment in paper order:
// fig1, fig4, fig6..fig17, table1, thm1, exascale, then the help-tier
// ablation.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one experiment by id at the given scale
// (1.0 = paper-sized matrices) and returns its rendered table.
func RunExperiment(id string, scale float64, seed int64) (string, error) {
	tbl, err := experiments.Run(id, scale, seed)
	if err != nil {
		return "", err
	}
	tbl.ID = id
	return tbl.String(), nil
}

// CholeskyFactorization is the result of FactorCholesky: A = L*L^T.
type CholeskyFactorization = core.CholeskyFactorization

// FactorCholesky factors a symmetric positive definite matrix with
// tiled Cholesky under the same layouts and hybrid static/dynamic
// scheduling as CALU — the paper's section 9 future-work item.
func FactorCholesky(a *Matrix, opt Options) (*CholeskyFactorization, error) {
	return core.FactorCholesky(a, opt)
}

// CholeskyResidual returns ||A - L L^T|| normalized.
func CholeskyResidual(a *Matrix, f *CholeskyFactorization) float64 {
	return core.CholeskyResidual(a, f)
}

// RandomSPD returns a random symmetric positive definite matrix for
// Cholesky workloads.
func RandomSPD(n int, seed int64) *Matrix { return core.RandomSPD(n, seed) }

// Engine is the resident factorization service: one long-lived worker
// pool executing many Factor/Solve jobs concurrently, each on a static
// reservation of the pool's workers. Create with NewEngine, feed with
// Submit/TrySubmit, Close when done.
type Engine = engine.Engine

// EngineWork is one submittable engine job of any kind, built by
// FactorWork, CholeskyWork or SolveWork.
type EngineWork = engine.Work

// FactorWork is a CALU factorization of a; the job's Result is a
// *Factorization.
func FactorWork(a *Matrix) EngineWork { return engine.FactorWork(a) }

// CholeskyWork is a tiled Cholesky factorization of the symmetric
// positive definite a; the job's Result is a *CholeskyFactorization.
func CholeskyWork(a *Matrix) EngineWork { return engine.CholeskyWork(a) }

// SolveWork is a blocked solve of f against the n x nrhs block b (one
// column for a single right-hand side); the job's Result is a
// *Solution.
func SolveWork(f Solvable, b *Matrix) EngineWork { return engine.SolveWork(f, b) }

// EngineOptions configures NewEngine: pool size and admission bound.
// Its DynamicRatio is ignored; a job's own dynamic share is
// Options.DynamicRatio.
type EngineOptions = engine.Options

// Solvable is a completed factorization the engine can schedule a
// blocked solve graph for: *Factorization and *CholeskyFactorization
// both qualify.
type Solvable = engine.Solvable

// ErrEngineClosed is Submit's error once the engine is closed.
var ErrEngineClosed = engine.ErrClosed

// NewEngine starts a resident engine; its workers and kernel
// workspaces live until Close.
func NewEngine(opt EngineOptions) (*Engine, error) { return engine.New(opt) }
