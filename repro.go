// Package repro is the public facade of the reproduction of Donfack,
// Grigori, Gropp and Kale, "Hybrid static/dynamic scheduling for
// already optimized dense matrix factorization" (IPDPS 2012).
//
// The library implements communication-avoiding LU factorization
// (CALU) with tournament pivoting over three data layouts (column
// major, block cyclic, two-level blocks), scheduled by fully static,
// fully dynamic or hybrid static/dynamic (the paper's contribution)
// policies; the MKL-style and PLASMA-style baselines the paper compares
// against; a discrete-event simulator of the paper's two evaluation
// machines; and the experiment harness that regenerates every figure
// and table of the evaluation section.
//
// Quick start:
//
//	a := repro.RandomMatrix(1024, 1024, 42)
//	f, err := repro.Factor(a, repro.Options{
//		Layout:       repro.LayoutBlockCyclic,
//		Workers:      8,
//		Scheduler:    repro.ScheduleHybrid,
//		DynamicRatio: 0.1, // the paper's usual sweet spot
//	})
//	x, err := f.Solve(b)
//
// For many small-to-medium factorizations, prefer the resident engine,
// which amortizes worker and workspace setup across jobs and gives each
// job a static share of its pool:
//
//	eng, err := repro.NewEngine(repro.EngineOptions{Workers: 8})
//	defer eng.Close()
//	job, err := eng.Submit(ctx, repro.FactorWork(a), repro.Options{Workers: 2})
//	err = job.Wait()
//	f := job.Factorization()
//
// Solves are first-class pool citizens too: a solve executes as a
// blocked two-sweep triangular-solve task graph (diagonal TRSM tasks
// plus packed-GEMM right-hand-side updates) under the same hybrid
// static/dynamic scheduling as the factorizations, so a solve-heavy
// service parallelizes its solves instead of burning one worker each.
// Multi-RHS solves put GEMM — not GEMV — on the flop path:
//
//	X, err := f.SolveMany(B, repro.Options{Workers: 4})        // one-shot
//	job, err := eng.Submit(ctx, repro.SolveWork(f, B), repro.Options{Workers: 4})
//
// Engine admission is two first-in first-out lanes: small jobs ride
// an express lane that is served first, with a one-worker default
// share, and big jobs start from the second lane when the express lane
// is empty. Every job kind goes through the same two calls, Submit
// (blocks at the admission bound) and TrySubmit (ErrEngineSaturated
// instead). Their context is the job's only stop signal: a deadline is
// the context's deadline, and work still queued when the context ends
// is withdrawn with the context's cause.
//
// See DESIGN.md for the system inventory; README.md and CHANGES.md
// carry the measured-performance record.
package repro

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/model"
	"repro/internal/sim"
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

// SolveJob is a prepared blocked triangular solve (see
// Factorization.PrepareSolve / CholeskyFactorization.PrepareSolve),
// the solve counterpart of a prepared factorization.
type SolveJob = core.SolveJob

// SingularSolveError reports a solve against a degraded factorization
// (a zero diagonal in the triangular factor); it carries the
// factored-prefix length, i.e. how much of the system is solvable.
type SingularSolveError = core.SingularSolveError

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

// Machine is a simulated platform model.
type Machine = sim.Machine

// IntelXeon16 models the paper's 16-core Intel Xeon machine.
func IntelXeon16() Machine { return sim.IntelXeon16() }

// AMDOpteron48 models the paper's 48-core AMD Opteron NUMA machine.
func AMDOpteron48() Machine { return sim.AMDOpteron48() }

// TheoremParams are the inputs of the paper's Theorem 1 (section 6).
type TheoremParams = model.Params

// ExperimentIDs lists every reproducible experiment (fig1..fig17,
// table1, thm1, exascale, ablation) in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one experiment by id at the given scale
// (1.0 = paper-sized matrices) and returns its rendered table.
func RunExperiment(id string, scale float64, seed int64) (string, error) {
	tbl, err := experiments.Run(id, scale, seed)
	if err != nil {
		return "", err
	}
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

// EngineJob is the handle of one submitted engine job; Wait for
// completion, then read Result (of the work's result type) or its typed
// shorthands Factorization and SolutionMatrix.
type EngineJob = engine.Job

// Solvable is a completed factorization the engine can schedule a
// blocked solve graph for: *Factorization and *CholeskyFactorization
// both qualify.
type Solvable = engine.Solvable

// EngineStats is a point-in-time snapshot of an engine's pool and job
// counters.
type EngineStats = engine.Stats

// JobClass labels a job for the engine's two-lane admission: small
// jobs ride an express lane that is served first and default to a
// one-worker share; large jobs queue in a second lane. Set on
// Options.Class; ClassAuto lets the engine classify by estimated flop
// count.
type JobClass = core.JobClass

// Job classes for Options.Class.
const (
	ClassAuto  = core.ClassAuto
	ClassSmall = core.ClassSmall
	ClassLarge = core.ClassLarge
)

// EngineClassStats is the per-class slice of EngineStats: completion
// counts, live queue depth and recent submit-to-done latency
// percentiles.
type EngineClassStats = engine.ClassStats

// Engine submission errors.
var (
	ErrEngineClosed    = engine.ErrClosed
	ErrEngineSaturated = engine.ErrSaturated
)

// NewEngine starts a resident engine; its workers and kernel
// workspaces live until Close.
func NewEngine(opt EngineOptions) (*Engine, error) { return engine.New(opt) }

// ClusterRouter is the sharded serving tier's front door: it
// consistent-hashes factorization keys across engine shards, factors
// each key on its owner, replicates the serialized factorization for
// solve read-scaling, and handles shard join, drain and failure. Serve
// its Handler behind an HTTP listener (cmd/hsdrouter does exactly
// that).
type ClusterRouter = cluster.Router

// ClusterShardInfo names one engine shard and where to reach it.
type ClusterShardInfo = cluster.ShardInfo

// ClusterRouterOptions configures NewClusterRouter: initial shards,
// replication factor, ring virtual nodes, health probing and body
// caps.
type ClusterRouterOptions = cluster.RouterOptions

// NewClusterRouter builds a cluster router over running hsdserve
// shards.
func NewClusterRouter(opt ClusterRouterOptions) (*ClusterRouter, error) {
	return cluster.NewRouter(opt)
}

// EncodeFactorization serializes a factorization (exactly one of lu,
// chol) into the cluster wire format: pivots plus packed factor blocks,
// bit-exact, as shipped between shards for replication and migration.
func EncodeFactorization(lu *Factorization, chol *CholeskyFactorization) ([]byte, error) {
	return cluster.EncodeFactorization(lu, chol)
}

// DecodeFactorization inverts EncodeFactorization; the result carries
// the factors and permutation only (run metadata does not travel).
func DecodeFactorization(data []byte) (*Factorization, *CholeskyFactorization, error) {
	return cluster.DecodeFactorization(data)
}
