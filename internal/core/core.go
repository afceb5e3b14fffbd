// Package core is the heart of the library: communication-avoiding LU
// factorization (CALU) with tournament pivoting, executed under the
// paper's static, dynamic, or hybrid static/dynamic scheduling over any
// of the three data layouts. It exposes a high-level Factor/Solve API
// and the residual checks used by the test suite and examples.
package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/piv"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Scheduler selects the scheduling strategy of Table 1.
type Scheduler int

const (
	// ScheduleHybrid (the default) is the paper's hybrid static/dynamic
	// strategy; the dynamic share is Options.DynamicRatio. At ratio 0
	// every block column is static (Nstatic = nb), so the zero Options
	// pop nothing from the shared queue and produce factors
	// bit-identical to ScheduleStatic's. They do not idle like it: a
	// hybrid worker that would otherwise sleep runs a lagging owner's
	// pinned tasks (sched.Policy.Help), which Counters reports as Steals
	// and Mismatches instead of owner-queue pops.
	ScheduleHybrid Scheduler = iota
	// ScheduleStatic is fully static owner-computes scheduling.
	ScheduleStatic
	// ScheduleDynamic is fully dynamic shared-queue scheduling.
	ScheduleDynamic
)

// String names the scheduler like the paper's figure legends.
func (s Scheduler) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// ParseScheduler resolves a scheduler name as command-line flags spell
// it: "hybrid" (also the empty name), "static" or "dynamic", in any
// case.
func ParseScheduler(name string) (Scheduler, error) {
	switch strings.ToLower(name) {
	case "", "hybrid":
		return ScheduleHybrid, nil
	case "static":
		return ScheduleStatic, nil
	case "dynamic":
		return ScheduleDynamic, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (use static, dynamic or hybrid)", name)
}

// Options configures a factorization.
type Options struct {
	// Layout is the storage scheme; the zero value is CM.
	Layout layout.Kind
	// Block is the block/tile size b (default DefaultBlock; the paper
	// uses 100).
	Block int
	// Workers is the parallelism degree (default 1).
	Workers int
	// Scheduler picks the policy (default ScheduleHybrid).
	Scheduler Scheduler
	// DynamicRatio is the paper's dratio: the fraction of block columns
	// scheduled dynamically under ScheduleHybrid. 0.1 reproduces the
	// paper's usual best configuration, "CALU static(10% dynamic)".
	DynamicRatio float64
	// Trace, if non-nil, records the execution timeline.
	Trace *trace.Trace
	// Noise, if non-nil, injects a busy-wait after each task (failure
	// injection emulating OS interference).
	Noise func(worker int) time.Duration
}

// DefaultBlock is the block size of Options with Block <= 0.
const DefaultBlock = 32

func (o *Options) fill() {
	if o.Block <= 0 {
		o.Block = DefaultBlock
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// GroupSize is the k the static section's grouped updates run with,
// the paper's choice for the layout. Its k=3 grouping exploits BCL's
// contiguity. For CM the natural task
// granularity of Algorithm 2's dynamic section is a whole column ("do
// task S ... for all I"), which CM's vertical contiguity expresses as an
// unbounded row group. 2l-BL cannot group at all (section 4.2).
func (o Options) GroupSize() int {
	switch o.Layout {
	case layout.BCL:
		return 3
	case layout.CM:
		return 1 << 16
	}
	return 1
}

// NstaticCols converts the scheduler + dratio into the number of block
// columns scheduled statically, Nstatic = N*(1-dratio) (Algorithm 1,
// line 2). With GroupSize and Policy it is everything a caller that
// drives a CALU graph itself — the simulator's — needs to run what
// Factor would.
func (o Options) NstaticCols(nb int) int {
	switch o.Scheduler {
	case ScheduleDynamic:
		return 0
	case ScheduleStatic:
		return nb
	default:
		ns := int(math.Round(float64(nb) * (1 - o.DynamicRatio)))
		if ns < 0 {
			ns = 0
		}
		if ns > nb {
			ns = nb
		}
		return ns
	}
}

// Policy returns a fresh instance of the scheduling policy the options
// select.
func (o Options) Policy() sched.Policy {
	switch o.Scheduler {
	case ScheduleStatic:
		return sched.NewStatic()
	case ScheduleDynamic:
		return sched.NewDynamic()
	default:
		return sched.NewHybrid()
	}
}

// Factorization is the result of Factor: PA = LU with P encoded as a
// row permutation vector (Perm[i] is the original index of the row that
// ended up at position i).
type Factorization struct {
	Perm []int
	L    *mat.Dense // m x r unit lower triangular, r = min(m,n)
	U    *mat.Dense // r x n upper triangular
	// Makespan is the wall-clock factorization time.
	Makespan time.Duration
	// Counters carries the scheduler instrumentation.
	Counters sched.Counters
	// Stats summarizes the executed task graph.
	Stats dag.Stats
}

// Factor computes the CALU factorization of a (which is not modified)
// and returns PA = LU.
//
// Singular inputs degrade the same way ReferenceLU does: an exactly
// singular tournament chunk (duplicated or zero rows confined to one
// chunk of a panel) is absorbed by the prefix fallback of the
// tournament's selection (piv.SelectInPlace) and the factorization
// completes normally, while a matrix whose panel is rank
// deficient as a whole — one plain GEPP would also abort on, such as an
// exactly zero column — returns an error rather than panicking (the
// runtime converts numerical-failure panics in tasks into errors).
func Factor(a *mat.Dense, opt Options) (*Factorization, error) {
	job, err := PrepareFactor(a, opt)
	if err != nil {
		return nil, err
	}
	return job.Run()
}

// Prepared is a job of any kind — CALU, Cholesky, blocked solve — whose
// layout is allocated and task graph built, but of which nothing has
// executed yet; R is the kind's result type. It decouples graph
// construction from graph execution so a caller that already holds a
// kernel workspace reservation — the engine, for its whole pool — can
// run the graph through rt.Execute instead of rt.Run, which Run wraps
// and which reserves per call. A Prepared is single-use: its task
// closures mutate the layout in place.
type Prepared[R any] struct {
	// Opt is the fully defaulted option set the job was built with.
	Opt    Options
	graph  *dag.Graph
	finish func(rt.Result) R
}

// The three job kinds, built by PrepareFactor, PrepareCholesky and the
// factorizations' PrepareSolve.
type (
	FactorJob   = Prepared[*Factorization]
	CholeskyJob = Prepared[*CholeskyFactorization]
	SolveJob    = Prepared[*Solution]
)

// Graph returns the task graph to execute.
func (p *Prepared[R]) Graph() *dag.Graph { return p.graph }

// Policy returns a fresh scheduling policy instance for this job.
func (p *Prepared[R]) Policy() sched.Policy { return p.Opt.Policy() }

// Finish assembles the result after the graph has executed to
// completion with the given runtime result.
func (p *Prepared[R]) Finish(res rt.Result) R { return p.finish(res) }

// Run executes the graph one-shot on Opt.Workers freshly spawned
// workers and assembles the result: the one place the package meets the
// runtime.
func (p *Prepared[R]) Run() (R, error) {
	res, err := rt.Run(p.graph, p.Policy(), rt.Options{
		Workers: p.Opt.Workers, Trace: p.Opt.Trace, Noise: p.Opt.Noise,
	})
	if err != nil {
		var zero R
		return zero, err
	}
	return p.finish(res), nil
}

// PrepareFactor builds the CALU graph for factoring a (which is not
// modified) under opt. The static distribution is built for
// opt.Workers owners; which worker executes a task does not change the
// arithmetic, since the graph's dataflow fixes it completely.
func PrepareFactor(a *mat.Dense, opt Options) (*FactorJob, error) {
	opt.fill()
	grid := layout.NewGrid(opt.Workers)
	l := layout.New(opt.Layout, a, opt.Block, grid)
	_, nb := l.Blocks()
	cg := dag.BuildCALU(l, dag.CALUOptions{
		NstaticCols: opt.NstaticCols(nb),
		Group:       opt.GroupSize(),
	})
	if err := cg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid CALU graph: %w", err)
	}
	return luJob(opt, cg.Graph, cg.Layout, cg.StepSwaps), nil
}

// luJob wraps a built LU graph over l as a job whose finish step
// assembles the permutation from the per-step row interchanges swaps
// (filled in by the panel tasks), applies the deferred left swaps
// (Algorithm 1, line 43: L <- Pi_N ... Pi_1 L) and only then reads the
// factors out. CALU and the GEPP baseline share it.
func luJob(opt Options, g *dag.Graph, l layout.Layout, swaps [][][2]int) *FactorJob {
	return &FactorJob{Opt: opt, graph: g, finish: func(res rt.Result) *Factorization {
		m, _, _ := l.Dims()
		perm := make([]int, m)
		for i := range perm {
			perm[i] = i
		}
		for _, s := range swaps {
			piv.ApplySwapsToPerm(perm, s)
		}
		layout.ApplyLeftSwaps(l, swaps)
		lf, uf := ExtractLU(l)
		return &Factorization{
			Perm:     perm,
			L:        lf,
			U:        uf,
			Makespan: res.Makespan,
			Counters: res.Counters,
			Stats:    g.ComputeStats(),
		}
	}}
}

// ExtractLU reads the packed factors out of a factored layout: L is the
// unit lower trapezoid, U the upper trapezoid. Each storage run's
// columns go straight from the layout into the factor they belong to.
func ExtractLU(l layout.Layout) (*mat.Dense, *mat.Dense) {
	m, n, b := l.Dims()
	lf, uf := luFactors(m, n)
	layout.WalkColumns(l, func(i, j int, run kernel.View) {
		splitBlock(lf, uf, run, i*b, j*b, 1)
	})
	return lf, uf
}

// luFactors allocates the pair splitBlock fills for an m x n LU: a zero
// L with its unit diagonal set, and a zero U.
func luFactors(m, n int) (lf, uf *mat.Dense) {
	r := min(m, n)
	lf, uf = mat.New(m, r), mat.New(r, n)
	for i := 0; i < r; i++ {
		lf.Data[i*lf.Stride+i] = 1
	}
	return lf, uf
}

// splitBlock files blk, whose element (0,0) is element (r0,c0) of a
// packed factored matrix, into the triangular factors one column run at
// a time: in global column c, rows above c+below go to up, the rest to
// lo. LU passes below = 1 (the diagonal is U's); Cholesky below = 0 and
// a nil up, dropping the never-factored strict upper triangle.
func splitBlock(lo, up *mat.Dense, blk kernel.View, r0, c0, below int) {
	for jj := 0; jj < blk.Cols; jj++ {
		c := c0 + jj
		cut := min(max(c+below-r0, 0), blk.Rows)
		run := blk.Data[jj*blk.Stride : jj*blk.Stride+blk.Rows]
		if up != nil && cut > 0 {
			copy(up.Data[c*up.Stride+r0:], run[:cut])
		}
		if cut < blk.Rows {
			copy(lo.Data[c*lo.Stride+r0+cut:], run[cut:])
		}
	}
}

// Residual returns the normalized backward error
// ||PA - LU||_max / (||A||_max * n): the end-to-end correctness metric
// for a factorization. Values around machine epsilon times a modest
// growth factor indicate success.
func Residual(a *mat.Dense, f *Factorization) float64 {
	pa := mat.PermuteRows(a, f.Perm)
	lu := mat.MulNaive(f.L, f.U)
	denom := a.NormMax() * float64(max(a.Rows, a.Cols))
	if denom == 0 {
		denom = 1
	}
	return mat.MaxAbsDiff(pa, lu) / denom
}

// Solve solves A x = b for one right-hand side with scalar
// substitution: x = U^{-1} L^{-1} P b. A must have been square. It is
// the sequential oracle of the blocked multi-RHS path (SolveMany /
// PrepareSolve), which routes the same arithmetic through the packed
// kernels and the task runtime. A degraded factorization — a zero
// diagonal in U, the prefix-padded output of a factorization that
// absorbed singular chunks — yields a *SingularSolveError carrying the
// factored-prefix length.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	m := f.L.Rows
	n := f.U.Cols
	if m != n {
		return nil, fmt.Errorf("core: solve requires a square factorization, got %dx%d", m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("core: rhs length %d != %d", len(b), m)
	}
	if p := diagPrefix(f.U); p < n {
		return nil, &SingularSolveError{Prefix: p, N: n}
	}
	// y = P b
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		y[i] = b[f.Perm[i]]
	}
	// Forward substitution with unit L.
	for j := 0; j < n; j++ {
		for i := j + 1; i < m; i++ {
			y[i] -= f.L.At(i, j) * y[j]
		}
	}
	// Back substitution with U (the diagonal was screened above).
	for j := n - 1; j >= 0; j-- {
		y[j] /= f.U.At(j, j)
		for i := 0; i < j; i++ {
			y[i] -= f.U.At(i, j) * y[j]
		}
	}
	return y, nil
}

// SolveResidual returns ||A x - b||_inf / (||A||_inf * ||x||_inf), the
// normalized residual of a solve.
func SolveResidual(a *mat.Dense, x, b []float64) float64 {
	m := a.Rows
	r := make([]float64, m)
	copy(r, b)
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		col := a.Col(j)
		for i := 0; i < m; i++ {
			r[i] -= col[i] * xj
		}
	}
	rn, xn := 0.0, 0.0
	for _, v := range r {
		rn = math.Max(rn, math.Abs(v))
	}
	for _, v := range x {
		xn = math.Max(xn, math.Abs(v))
	}
	denom := a.NormInf() * xn
	if denom == 0 {
		denom = 1
	}
	return rn / denom
}

// ReferenceLU is the sequential oracle: plain recursive GEPP on a dense
// copy, returning the same Factorization shape as Factor. Its panel
// work rides the same blocked register-tiled GETRF leaves as the CALU
// tasks, so oracle and subject share kernels. An exactly singular
// pivot column yields a *kernel.SingularError.
func ReferenceLU(a *mat.Dense) (*Factorization, error) {
	m, n := a.Rows, a.Cols
	work := a.Clone()
	r := min(m, n)
	pivots := make([]int, r)
	v := viewOf(work)
	if err := kernel.RecursiveLU(v, pivots); err != nil {
		return nil, err
	}
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for k, p := range pivots {
		perm[k], perm[p] = perm[p], perm[k]
	}
	lf, uf := luFactors(m, n)
	splitBlock(lf, uf, v, 0, 0, 1)
	return &Factorization{Perm: perm, L: lf, U: uf}, nil
}

// GrowthFactor returns ||U||_max / ||A||_max, the pivot-growth metric
// used to compare the stability of tournament pivoting against partial
// pivoting (section 2 claims they are comparable in practice).
func GrowthFactor(a *mat.Dense, f *Factorization) float64 {
	am := a.NormMax()
	if am == 0 {
		return 0
	}
	return f.U.NormMax() / am
}
