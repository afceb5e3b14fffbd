// Package engine is the resident factorization service: one long-lived
// pool of worker goroutines executing many Factor/Solve jobs
// concurrently, instead of every call spawning and tearing down its own
// workers (the one-shot rt.Run mode).
//
// The scheduling is the paper's hybrid static/dynamic split lifted to
// the inter-job level. Within one factorization, Donfack et al. reserve
// a static share of the block columns for locality and let a dynamic
// share absorb load imbalance; across competing jobs the engine does
// the same with workers. Each admitted job receives a static
// reservation — a guaranteed share of the pool that attaches to the
// job's rt.Executor and drives it to completion, preserving the
// intra-job owner-computes locality — while the pool's dynamic share
// (Options.DynamicRatio) floats: an idle floater lends itself to
// whichever job has published globally poppable work (the shared
// dynamic heap of the hybrid policy, stealable deques of work
// stealing), absorbing inter-job imbalance exactly like the paper's
// dynamic section absorbs intra-job imbalance. DynamicRatio 0 is the
// fully static A/B end (jobs partition the pool, no lending) and 1 is
// the fully dynamic end (every job pinned to a single guaranteed
// worker, everyone else floating).
//
// Admission is traffic-shaped (see admission.go): jobs are classified
// small or large by a flop cost model and routed to two lanes. Small
// jobs take an express lane and are fused — a waiting burst becomes one
// composite forest (dag.Fuse) sharing a single reservation — while big
// jobs take a lane whose reservations are bounded to bigShare of the
// static pool whenever express traffic is waiting, so one huge
// factorization cannot head-of-line-block a stream of tiny solves.
// Within each lane, jobs with deadlines are served in laxity order and
// infeasible deadlines are shed at submission with
// ErrDeadlineInfeasible; floaters lend preferentially to the running
// job closest to missing its deadline.
//
// A job whose requested share is not available starts anyway with what
// the pool can guarantee (at least one worker), so service is
// work-conserving and a job can never be starved by wide requests. The
// granted share is the parallelism the job's task graph is built for:
// its result is bit-identical to a one-shot core.Factor at
// Workers=Granted (the graph's dataflow fixes the arithmetic;
// scheduling only reorders it) — and fusion keeps that property,
// because dag.Fuse adds no edges between members.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/rt"
	"repro/internal/sched"
)

var (
	// ErrClosed is returned by submissions after Close.
	ErrClosed = errors.New("engine: closed")
	// ErrSaturated is returned by TrySubmit when the admission queue
	// is at MaxInflight.
	ErrSaturated = errors.New("engine: admission queue full")
)

// Options configures an Engine.
type Options struct {
	// Workers is the resident pool size (default runtime.NumCPU()).
	Workers int
	// MaxInflight bounds admitted jobs (queued + running); further
	// submissions block (Submit) or fail (TrySubmit). Default
	// 4*Workers.
	MaxInflight int
	// DynamicRatio is the inter-job dratio: the fraction of the pool
	// that lends itself dynamically across jobs instead of being
	// reservable as static per-job shares. 0 partitions the pool fully
	// statically (no lending — the A/B baseline); 1 pins each job to
	// one guaranteed worker and floats everyone else (fully dynamic).
	// Values in between reproduce the paper's hybrid sweet spot at the
	// job level.
	DynamicRatio float64
}

func (o *Options) fill() error {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * o.Workers
	}
	if o.DynamicRatio < 0 || o.DynamicRatio > 1 || math.IsNaN(o.DynamicRatio) {
		return fmt.Errorf("engine: DynamicRatio %v outside [0,1]", o.DynamicRatio)
	}
	return nil
}

// Stats is a point-in-time snapshot of the engine.
type Stats struct {
	// Workers is the resident pool size; Floaters its dynamic share.
	Workers, Floaters int
	// Pending counts queued jobs across both lanes (SmallQueued +
	// BigQueued); Active counts live executors (fused composites count
	// once, not per member); ReservedInUse is the sum of active static
	// grants, BigReserved the big-lane slice of it; HelpersOut the
	// floaters currently lent to a job.
	Pending, Active, ReservedInUse, BigReserved, HelpersOut int
	// SmallQueued and BigQueued are the live lane depths.
	SmallQueued, BigQueued int
	// JobsDone/JobsFailed count completed jobs; Lends counts Assist
	// attachments that executed at least one task for a foreign job.
	JobsDone, JobsFailed, Lends int64
	// FusionBatches counts composite forests launched; FusedJobs the
	// member jobs they carried. Shed counts deadline-infeasible
	// submissions rejected (at admission or at start); Cancelled counts
	// queued jobs withdrawn by their submission context.
	FusionBatches, FusedJobs, Shed, Cancelled int64
	// Small and Large are the per-class latency digests.
	Small, Large ClassStats
	Closed       bool
}

// Engine is the resident factorization service. Create with New, feed
// with Submit/TrySubmit, and Close when done.
type Engine struct {
	opt Options
	ws  *kernel.Reservation

	mu    sync.Mutex
	work  *sync.Cond // workers wait here for assignments
	capa  *sync.Cond // submitters wait here for admission capacity
	small laneQueue  // express lane (fused composites)
	big   laneQueue  // bounded lane
	run   []*Job     // started, executor live
	// inflight = queued + started-but-unfinished user jobs (composites
	// excluded, members included); bounded by MaxInflight.
	inflight      int
	reservedInUse int
	bigReserved   int
	helpersOut    int
	rotor         int
	seq           uint64
	// rates are the per-class EWMA service-rate estimates, flops per
	// nanosecond, indexed by rate class (rateGemm, rateMem): factor
	// traffic runs at GEMM speed, solve traffic at memory speed, and
	// mixing them in one estimate would skew both (admission.go).
	rates              [numRateClasses]float64
	latSmall, latLarge latRing
	// classDone/classFailed are indexed by classIdx.
	classDone, classFailed [2]int64
	closed                 bool

	wg sync.WaitGroup

	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	lends         atomic.Int64
	fusionBatches atomic.Int64
	fusedJobs     atomic.Int64
	shedCount     atomic.Int64
	cancelled     atomic.Int64
}

// New starts a resident engine: the worker goroutines and the pool-wide
// kernel workspace reservation live until Close.
func New(opt Options) (*Engine, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	e := &Engine{opt: opt}
	for c := range e.rates {
		e.rates[c] = ratePrior
	}
	e.work = sync.NewCond(&e.mu)
	e.capa = sync.NewCond(&e.mu)
	// One refcounted pool-wide reservation: at most Workers goroutines
	// ever call kernels at once, however many jobs are in flight, so
	// per-job executors run with ExternalWorkspace.
	e.ws = kernel.Reserve(opt.Workers)
	e.wg.Add(opt.Workers)
	for w := 0; w < opt.Workers; w++ {
		go e.worker()
	}
	return e, nil
}

// floaters is the pool's dynamic share: the number of workers that lend
// themselves across jobs instead of being statically reservable.
func (e *Engine) floaters() int {
	return int(math.Round(float64(e.opt.Workers) * e.opt.DynamicRatio))
}

// classIdx maps a resolved job class to the per-class counter slot.
func classIdx(c core.JobClass) int {
	if c == core.ClassSmall {
		return 0
	}
	return 1
}

func (e *Engine) ring(idx int) *latRing {
	if idx == 0 {
		return &e.latSmall
	}
	return &e.latLarge
}

// Close rejects queued jobs, waits for running jobs and the workers to
// finish, and releases the pool's kernel workspaces. Safe to call once.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	dropped := e.small.drain()
	dropped = append(dropped, e.big.drain()...)
	e.inflight -= len(dropped)
	for _, j := range dropped {
		e.classFailed[classIdx(j.class)]++
	}
	e.work.Broadcast()
	e.capa.Broadcast()
	e.mu.Unlock()
	for _, j := range dropped {
		j.err = ErrClosed
		e.jobsFailed.Add(1)
		if j.stopCancel != nil {
			j.stopCancel()
		}
		close(j.done)
	}
	e.wg.Wait()
	e.ws.Release()
}

// Stats returns a snapshot of the engine's state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Workers:       e.opt.Workers,
		Floaters:      e.floaters(),
		Pending:       e.small.depth + e.big.depth,
		SmallQueued:   e.small.depth,
		BigQueued:     e.big.depth,
		Active:        len(e.run),
		ReservedInUse: e.reservedInUse,
		BigReserved:   e.bigReserved,
		HelpersOut:    e.helpersOut,
		Closed:        e.closed,
	}
	s.Small = ClassStats{Done: e.classDone[0], Failed: e.classFailed[0], Queued: e.small.depth}
	s.Small.P50Ms, s.Small.P99Ms = e.latSmall.percentiles()
	s.Large = ClassStats{Done: e.classDone[1], Failed: e.classFailed[1], Queued: e.big.depth}
	s.Large.P50Ms, s.Large.P99Ms = e.latLarge.percentiles()
	e.mu.Unlock()
	s.JobsDone = e.jobsDone.Load()
	s.JobsFailed = e.jobsFailed.Load()
	s.Lends = e.lends.Load()
	s.FusionBatches = e.fusionBatches.Load()
	s.FusedJobs = e.fusedJobs.Load()
	s.Shed = e.shedCount.Load()
	s.Cancelled = e.cancelled.Load()
	return s
}

// ---------------------------------------------------------------------
// Jobs.

// Solvable is a completed factorization the engine can schedule a
// blocked triangular-solve graph for: *core.Factorization and
// *core.CholeskyFactorization both qualify.
type Solvable interface {
	PrepareSolve(b *mat.Dense, opt core.Options) (*core.SolveJob, error)
}

// Work is one submittable job of any kind: what admission needs to know
// about it before it runs (a flop estimate, a service-rate class, a
// default share) and how to build its task graph once a share has been
// granted. FactorWork, CholeskyWork and SolveWork build the three kinds;
// a further kind is one more constructor, not an engine change.
type Work struct {
	// label names the job in fused-composite traces.
	label string
	// flops is the admission cost model: the leading-order flop count,
	// used to classify small vs large, to order lanes by laxity and to
	// decide deadline feasibility. It deliberately ignores lower-order
	// terms — admission needs relative magnitudes, not exact counts.
	flops float64
	// rate is the service-rate class (rateGemm, rateMem) the flops are
	// charged at.
	rate int
	// wide is the unset-Workers share request: the whole pool for a
	// factorization, one worker for a solve — a solve is O(n²·nrhs)
	// against the factorization's O(n³), so a service that doesn't ask
	// for a wider share should not have tiny solves reserving the whole
	// pool. An explicitly requested share is honoured for every kind,
	// and even a one-worker solve still publishes shared work for the
	// pool's floaters to lend into.
	wide bool
	// prepare builds the task graph, policy and result finisher at the
	// granted share (core.Options.Workers).
	prepare func(core.Options) (*dag.Graph, sched.Policy, func(rt.Result) any, error)
	// err is the constructor's input check, reported by Submit before
	// the job takes an admission slot.
	err error
}

// prepared adapts a core.Prepare* result to Work.prepare.
func prepared[R any](p *core.Prepared[R], err error) (*dag.Graph, sched.Policy, func(rt.Result) any, error) {
	if err != nil {
		return nil, nil, nil, err
	}
	return p.Graph(), p.Policy(), func(res rt.Result) any { return p.Finish(res) }, nil
}

// empty reports a matrix input no kind can work on.
func empty(a *mat.Dense) bool { return a == nil || a.Rows == 0 || a.Cols == 0 }

// FactorWork is a CALU factorization of a (not modified). The job's
// Result is a *core.Factorization, bit-identical to a one-shot
// core.Factor at Workers=Granted.
func FactorWork(a *mat.Dense) Work {
	if empty(a) {
		return Work{err: errors.New("engine: factor needs a non-empty matrix")}
	}
	m, n := float64(a.Rows), float64(a.Cols)
	r := math.Min(m, n)
	return Work{
		label: fmt.Sprintf("lu %dx%d", a.Rows, a.Cols),
		// LU of m x n: r^2 * (max(m,n) - r/3); 2/3 n^3 when square.
		flops: r * r * (math.Max(m, n) - r/3),
		rate:  rateGemm,
		wide:  true,
		prepare: func(opt core.Options) (*dag.Graph, sched.Policy, func(rt.Result) any, error) {
			return prepared(core.PrepareFactor(a, opt))
		},
	}
}

// CholeskyWork is a tiled Cholesky factorization of the symmetric
// positive definite matrix a (only the lower triangle is read; a is not
// modified). Cholesky jobs ride the pool exactly like CALU jobs; the
// Result is a *core.CholeskyFactorization, bit-identical to a one-shot
// core.FactorCholesky at Workers=Granted.
func CholeskyWork(a *mat.Dense) Work {
	if empty(a) {
		return Work{err: errors.New("engine: factor needs a non-empty matrix")}
	}
	n := float64(a.Rows)
	return Work{
		label: fmt.Sprintf("chol %d", a.Rows),
		flops: n * n * n / 3,
		rate:  rateGemm,
		wide:  true,
		prepare: func(opt core.Options) (*dag.Graph, sched.Policy, func(rt.Result) any, error) {
			return prepared(core.PrepareCholesky(a, opt))
		},
	}
}

// SolveWork is a solve of f (a completed LU or Cholesky factorization)
// against the n x nrhs block b (not modified). It executes as a blocked
// triangular-solve graph on the pool at the job's granted share
// (opt.Workers requests the share; opt.Scheduler/Block/DynamicRatio
// shape the graph), so big solves parallelize and lend exactly like
// factorizations. The Result is a *core.Solution.
func SolveWork(f Solvable, b *mat.Dense) Work {
	if f == nil {
		return Work{err: errors.New("engine: solve needs a completed factorization")}
	}
	if empty(b) {
		return Work{err: errors.New("engine: solve needs a non-empty right-hand side")}
	}
	n, nrhs := float64(b.Rows), float64(b.Cols)
	return Work{
		label: fmt.Sprintf("solve %dx%d", b.Rows, b.Cols),
		// Forward + backward sweep, n^2*nrhs each.
		flops: 2 * n * n * nrhs,
		rate:  rateMem,
		prepare: func(opt core.Options) (*dag.Graph, sched.Policy, func(rt.Result) any, error) {
			return prepared(f.PrepareSolve(b, opt))
		},
	}
}

// Job is the handle of one submitted Work. Wait (or Done) observes
// completion; Result is valid afterwards. Every kind of job executes as
// a task graph on the pool at the job's granted share, lending
// included. Small jobs may execute as members of a fused composite
// forest sharing one reservation with their batch mates; the handle
// behaves identically either way.
type Job struct {
	work   Work
	reqOpt core.Options

	// Admission state; all guarded by Engine.mu unless noted.
	class core.JobClass // resolved class (never ClassAuto)
	lane  lane
	role  jobRole
	state jobState
	seq   uint64
	// deadlineAbs is the absolute SLO deadline (zero = none); startBy
	// its laxity key (deadline minus estimated service, UnixNano), or
	// noDeadline.
	deadlineAbs time.Time
	startBy     int64
	// members are the fused user jobs of a roleComposite driver.
	members []*Job
	// stopCancel releases the submission context's cancellation hook.
	stopCancel func() bool

	// Execution state.
	ex *rt.Executor
	// finish assembles the job's result from the runtime result; set by
	// prepare together with the graph.
	finish  func(rt.Result) any
	granted int
	// nextSeat hands reserved seats [1,granted) to claiming workers
	// (seat 0 belongs to the starter); guarded by Engine.mu.
	nextSeat int
	// helperSlots holds the free lending-slot ids of this job's
	// executor; possession of an id serializes Assist on that slot.
	helperSlots chan int
	// lendHint is set when the executor published shared work with all
	// reserved workers busy, and cleared by a floater that attached
	// and found nothing: the engine only sends floaters where the hint
	// is up.
	lendHint atomic.Bool
	// finishing elects the single finalizer: the first driver back for
	// solo/composite jobs, OnDone vs composite-failure for members.
	finishing atomic.Bool

	queued, started time.Time
	queueWait, span time.Duration

	done   chan struct{}
	result any
	err    error
}

// req is the requested static share; an unset request falls back to
// the kind's default (Work.wide).
func (j *Job) req(pool int) int {
	if j.reqOpt.Workers > 0 {
		return j.reqOpt.Workers
	}
	if j.work.wide {
		return pool
	}
	return 1
}

// reqExpress is the express-lane share request: an explicit Workers is
// honoured, unset defaults to one — a small job gets its throughput
// from batch mates sharing the reservation, not from a wide personal
// share.
func reqExpress(j *Job) int {
	if j.reqOpt.Workers > 0 {
		return j.reqOpt.Workers
	}
	return 1
}

// Done returns a channel closed when the job has completed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes and returns its error, if any.
func (j *Job) Wait() error {
	<-j.done
	return j.err
}

// Result returns the completed job's result, of its kind's type:
// *core.Factorization, *core.CholeskyFactorization or *core.Solution.
// Nil until Wait has returned nil.
func (j *Job) Result() any { return j.result }

// Factorization is Result for a FactorWork job (nil for any other).
func (j *Job) Factorization() *core.Factorization {
	f, _ := j.result.(*core.Factorization)
	return f
}

// SolutionMatrix is the n x nrhs solution block of a completed
// SolveWork job (nil for any other).
func (j *Job) SolutionMatrix() *mat.Dense {
	if s, ok := j.result.(*core.Solution); ok {
		return s.X
	}
	return nil
}

// Granted is the static worker share the job's task graph was built
// for (valid once the job has started; final after Wait). The result
// is bit-identical to a one-shot core.Factor at Workers=Granted. For a
// job that ran inside a fused composite this is the member graph's
// width, while the composite's reservation is shared with its batch
// mates.
func (j *Job) Granted() int { return j.granted }

// Class is the job's resolved admission class (never ClassAuto); valid
// once the submission has returned.
func (j *Job) Class() core.JobClass { return j.class }

// QueueWait is the time the job spent admitted but not started; Span
// is its start-to-completion service time.
func (j *Job) QueueWait() time.Duration { return j.queueWait }
func (j *Job) Span() time.Duration      { return j.span }

// Submit admits w under opt, blocking while the admission queue is
// full. opt.Workers is the requested static share; the engine may grant
// less under load (at least 1), recorded in Job.Granted. Cancelling ctx
// unblocks a submission waiting for admission capacity, and withdraws
// the job if it is still queued when the context fires (the job then
// fails with the context's cause instead of executing); a job already
// started runs to completion.
func (e *Engine) Submit(ctx context.Context, w Work, opt core.Options) (*Job, error) {
	return e.admit(ctx, w, opt, true)
}

// TrySubmit is Submit with ErrSaturated instead of blocking when the
// admission queue is full.
func (e *Engine) TrySubmit(ctx context.Context, w Work, opt core.Options) (*Job, error) {
	return e.admit(ctx, w, opt, false)
}

// SubmitFactor is Submit of FactorWork(a) without a context: with
// SubmitSolveMany, Job.Factorization and Job.SolutionMatrix, the
// shorthand the benchmark module compiles against.
func (e *Engine) SubmitFactor(a *mat.Dense, opt core.Options) (*Job, error) {
	return e.Submit(context.Background(), FactorWork(a), opt)
}

// SubmitSolveMany is Submit of SolveWork(f, b) without a context.
func (e *Engine) SubmitSolveMany(f Solvable, b *mat.Dense, opt core.Options) (*Job, error) {
	return e.Submit(context.Background(), SolveWork(f, b), opt)
}

// admit classifies, routes and enqueues the job: the traffic-shaping
// decision point. ctx cancellation unblocks the capacity wait and,
// once queued, withdraws the job (cancelQueued).
func (e *Engine) admit(ctx context.Context, w Work, opt core.Options, wait bool) (*Job, error) {
	if w.err != nil {
		return nil, w.err
	}
	j := &Job{work: w, reqOpt: opt, done: make(chan struct{})}
	if wait && ctx.Done() != nil {
		// Wake the capacity wait when the submitter gives up; Broadcast
		// because several submissions may share one context.
		stop := context.AfterFunc(ctx, func() {
			e.mu.Lock()
			e.capa.Broadcast()
			e.mu.Unlock()
		})
		defer stop()
	}
	e.mu.Lock()
	for {
		if e.closed {
			e.mu.Unlock()
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			e.mu.Unlock()
			return nil, err
		}
		if e.inflight < e.opt.MaxInflight {
			break
		}
		if !wait {
			e.mu.Unlock()
			return nil, ErrSaturated
		}
		e.capa.Wait()
	}
	now := time.Now()
	j.queued = now
	j.seq = e.seq
	e.seq++
	j.class = classify(j)
	j.startBy = noDeadline
	if d := j.reqOpt.Deadline; d != 0 {
		est := e.estServiceLocked(j)
		if d < 0 || est > d {
			e.mu.Unlock()
			e.shedCount.Add(1)
			return nil, fmt.Errorf("engine: estimated service %v exceeds deadline %v: %w", est, d, ErrDeadlineInfeasible)
		}
		j.deadlineAbs = now.Add(d)
		j.startBy = j.deadlineAbs.Add(-est).UnixNano()
	}
	if j.class == core.ClassSmall {
		j.lane = laneSmall
	} else {
		j.lane = laneBig
	}
	e.inflight++
	if j.lane == laneSmall {
		e.small.push(j)
	} else {
		e.big.push(j)
	}
	if ctx.Done() != nil {
		// Registered under e.mu so a firing cancellation always observes
		// the queued state (cancelQueued re-checks it under the lock).
		j.stopCancel = context.AfterFunc(ctx, func() {
			e.cancelQueued(j, context.Cause(ctx))
		})
	}
	e.work.Signal()
	e.mu.Unlock()
	return j, nil
}

// cancelQueued withdraws a job whose submission context fired while it
// was still waiting in a lane: it is marked failed with the context's
// cause and never executes. Jobs already started run to completion.
func (e *Engine) cancelQueued(j *Job, cause error) {
	e.mu.Lock()
	if j.state != jsQueued {
		e.mu.Unlock()
		return
	}
	if j.lane == laneSmall {
		e.small.cancel(j)
	} else {
		e.big.cancel(j)
	}
	e.inflight--
	e.classFailed[classIdx(j.class)]++
	e.capa.Signal()
	e.mu.Unlock()
	if cause == nil {
		cause = context.Canceled
	}
	j.err = cause
	e.cancelled.Add(1)
	e.jobsFailed.Add(1)
	close(j.done)
}

// ---------------------------------------------------------------------
// The resident worker loop.

// worker is one resident pool goroutine. Assignments, in preference
// order: claim an open reserved seat of a running job (finish what was
// started), start lane work (an express batch, a big-lane head, or a
// deadline-expired pop to shed), or float — lend itself to a running
// job that has signalled spare shared work.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		var j *Job
		var batch []*Job
		var seat, slot, grant int
		mode := 0
		for {
			if j, seat = e.claimSeatLocked(); j != nil {
				mode = 1
				break
			}
			if batch, grant = e.startableLocked(); batch != nil {
				mode = 2
				break
			}
			if j, slot = e.assistableLocked(); j != nil {
				mode = 3
				e.helpersOut++
				break
			}
			// Exit on inflight, not queue/run emptiness: a job between
			// startableLocked and its publication to e.run (its starter
			// is building the graph outside the lock) is in neither
			// list, but its open reserved seats still need this worker
			// — only completeJob's inflight decrement says it is safe
			// to go.
			if e.closed && e.inflight == 0 {
				e.mu.Unlock()
				return
			}
			e.work.Wait()
		}
		e.mu.Unlock()
		switch mode {
		case 1:
			e.driveJob(j, seat)
		case 2:
			e.startBatch(batch, grant)
		case 3:
			// Lower the hint BEFORE probing: a shared publish that
			// lands mid-assist then wins the lendSignal CAS and sends a
			// fresh signal, so no lend request is ever swallowed by the
			// store. If the probe does find work, re-raise the hint —
			// a queue deep enough to feed one floater likely has more.
			j.lendHint.Store(false)
			if j.ex.Assist(slot) {
				e.lends.Add(1)
				j.lendHint.Store(true)
			}
			j.helperSlots <- slot
			e.mu.Lock()
			e.helpersOut--
			e.mu.Unlock()
		}
	}
}

// claimSeatLocked finds a running job with an unclaimed reserved seat.
func (e *Engine) claimSeatLocked() (*Job, int) {
	for _, j := range e.run {
		if j.nextSeat < j.granted {
			s := j.nextSeat
			j.nextSeat++
			return j, s
		}
	}
	return nil, 0
}

// grantShed marks a startableLocked batch that was popped only to be
// shed: its jobs' deadlines expired while they waited.
const grantShed = -1

// startableLocked picks the next lane work, in order: deadline-expired
// heads to shed, an express-lane batch (fused when several small jobs
// wait), then the big-lane head under its share bound. On success the
// batch's jobs have been popped and the grant charged to the pool.
func (e *Engine) startableLocked() ([]*Job, int) {
	if exp := e.expiredLocked(); exp != nil {
		return exp, grantShed
	}
	// Express lane: one worker takes every fusable waiting small job
	// (up to fuseLimit) as a single composite sharing one reservation.
	if head := e.small.peek(); head != nil && e.grantLocked(1) > 0 {
		head = e.small.pop()
		head.state = jsStarted
		batch := []*Job{head}
		req := reqExpress(head)
		if head.fusable() {
			for len(batch) < fuseLimit {
				next := e.small.peek()
				if next == nil || !next.fusable() {
					break
				}
				e.small.pop()
				next.state = jsStarted
				batch = append(batch, next)
				if r := reqExpress(next); r > req {
					req = r
				}
			}
		}
		g := e.grantLocked(req) // >= 1: grantLocked(1) above saw a free worker
		e.reservedInUse += g
		if len(batch) == 1 {
			batch[0].granted = g
		}
		return batch, g
	}
	// Big lane, bounded to bigShare of the reservable pool while
	// express traffic waits.
	if head := e.big.peek(); head != nil {
		g := e.grantBigLocked(head.req(e.opt.Workers))
		if g == 0 {
			return nil, 0
		}
		e.big.pop()
		head.state = jsStarted
		head.granted = g
		e.reservedInUse += g
		e.bigReserved += g
		return []*Job{head}, g
	}
	return nil, 0
}

// expiredLocked pops lane heads whose absolute deadline has already
// passed: starting them could only burn a reservation on work that
// will miss its SLO, so they are shed instead.
func (e *Engine) expiredLocked() []*Job {
	var exp []*Job
	now := time.Now()
	for _, q := range []*laneQueue{&e.small, &e.big} {
		for {
			h := q.peek()
			if h == nil || h.deadlineAbs.IsZero() || now.Before(h.deadlineAbs) {
				break
			}
			q.pop()
			h.state = jsStarted
			exp = append(exp, h)
		}
	}
	return exp
}

// grantLocked sizes a job's static share: its request capped by the
// reservable share S = Workers - floaters, with a floor of one worker
// (the per-job liveness guarantee — lending slots cannot serve
// owner-pinned tasks, so every job keeps at least one reserved
// driver), and never more seats than workers left unreserved.
func (e *Engine) grantLocked(req int) int {
	free := e.opt.Workers - e.reservedInUse
	if free < 1 {
		return 0
	}
	g := req
	if avail := e.opt.Workers - e.floaters() - e.reservedInUse; g > avail {
		g = avail
	}
	if g < 1 {
		g = 1
	}
	if g > free {
		g = free
	}
	return g
}

// grantBigLocked is grantLocked with the big lane's bound applied:
// while express traffic is waiting, big-lane jobs may together hold at
// most bigShare of the reservable pool, so a stream of small jobs is
// never head-of-line-blocked behind wide factorizations. With an empty
// express lane the bound is lifted (work conservation).
func (e *Engine) grantBigLocked(req int) int {
	g := e.grantLocked(req)
	if g == 0 || e.small.depth == 0 {
		return g
	}
	bigCap := int(math.Round(bigShare * float64(e.opt.Workers-e.floaters())))
	if bigCap < 1 {
		bigCap = 1
	}
	room := bigCap - e.bigReserved
	if room < 1 {
		return 0
	}
	if g > room {
		g = room
	}
	return g
}

// assistableLocked picks the running job a floater should lend itself
// to, bounded by the pool's floater share. Among jobs whose lend hint
// is up, the one with the least laxity (earliest startBy — closest to
// missing its deadline) wins; ties break toward the job with the most
// globally poppable work (SharedBacklog), then rotor order for
// fairness among equals.
func (e *Engine) assistableLocked() (*Job, int) {
	d := e.floaters()
	if d == 0 || e.helpersOut >= d || len(e.run) == 0 {
		return nil, 0
	}
	n := len(e.run)
	type cand struct {
		j       *Job
		backlog int
	}
	var cands []cand
	for i := 0; i < n; i++ {
		if j := e.run[(e.rotor+i)%n]; j.lendHint.Load() {
			cands = append(cands, cand{j: j})
		}
	}
	if len(cands) == 0 {
		return nil, 0
	}
	if len(cands) > 1 {
		for i := range cands {
			cands[i].backlog = cands[i].j.ex.SharedBacklog()
		}
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].j.startBy != cands[b].j.startBy {
				return cands[a].j.startBy < cands[b].j.startBy
			}
			return cands[a].backlog > cands[b].backlog
		})
	}
	for _, c := range cands {
		select {
		case s := <-c.j.helperSlots:
			e.rotor = (e.rotor + 1) % n
			return c.j, s
		default:
		}
	}
	return nil, 0
}

// prepare builds the job's task graph, policy and result finisher (the
// expensive part, run outside the engine lock). A panicking prepare —
// a malformed matrix shape, a nil factorization behind the Solvable
// interface — is converted to a job error so a bad submission can
// never take down a pool worker.
func (j *Job) prepare(opt core.Options) (g *dag.Graph, pol sched.Policy, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: prepare %v", r)
		}
	}()
	g, pol, j.finish, err = j.work.prepare(opt)
	return g, pol, err
}

// startBatch dispatches what startableLocked popped: a shed batch, a
// solo job, or an express batch to fuse.
func (e *Engine) startBatch(batch []*Job, grant int) {
	if grant == grantShed {
		for _, j := range batch {
			j.err = fmt.Errorf("engine: deadline expired before start: %w", ErrDeadlineInfeasible)
			e.shedCount.Add(1)
			e.completeJob(j, false)
		}
		return
	}
	if len(batch) == 1 {
		e.startJob(batch[0])
		return
	}
	e.startFused(batch, grant)
}

// startJob runs a solo job: it builds the job's task graph and
// executor (outside the engine lock), publishes its open seats and
// lending slots, and the starter becomes reserved driver 0. Factor,
// Cholesky and solve jobs all take this path — a solve is a blocked
// triangular-solve graph, not an inline call, so it executes at the
// granted share and participates in lending like any factorization.
func (e *Engine) startJob(j *Job) {
	j.started = time.Now()
	j.queueWait = j.started.Sub(j.queued)
	opt := j.reqOpt
	opt.Workers = j.granted
	g, pol, err := j.prepare(opt)
	if err != nil {
		j.err = err
		e.completeJob(j, false)
		return
	}
	e.launch(j, g, pol, opt)
}

// startFused runs an express batch as one composite: every member's
// graph is built at its own small width, dag.Fuse merges them into a
// forest with owner interleaving and per-member completion callbacks,
// and a single engine-internal composite job drives the forest on one
// shared reservation. Members complete individually as their subgraphs
// drain; a member whose prepare fails is failed alone and its batch
// mates still run.
func (e *Engine) startFused(batch []*Job, granted int) {
	now := time.Now()
	parts := make([]dag.FusePart, 0, len(batch))
	members := make([]*Job, 0, len(batch))
	minStart := noDeadline
	for _, m := range batch {
		m.role = roleMember
		m.started = now
		m.queueWait = now.Sub(m.queued)
		opt := m.reqOpt
		w := opt.Workers
		if w <= 0 {
			w = 1
		}
		if w > granted {
			w = granted
		}
		opt.Workers = w
		g, _, err := m.prepare(opt)
		if err != nil {
			m.err = err
			if m.finishing.CompareAndSwap(false, true) {
				e.completeJob(m, false)
			}
			continue
		}
		m.granted = w
		mm := m
		parts = append(parts, dag.FusePart{G: g, Label: mm.work.label, OnDone: func() { e.finishFusedMember(mm) }})
		members = append(members, m)
		if m.startBy < minStart {
			minStart = m.startBy
		}
	}
	if len(parts) == 0 {
		// Every member died in prepare; give the reservation back.
		e.mu.Lock()
		e.reservedInUse -= granted
		e.work.Broadcast()
		e.mu.Unlock()
		return
	}
	fused := dag.Fuse(parts...)
	// Fold the interleaved owner space [0, sum of member widths) onto
	// the granted seats. Policies map owners onto slots modulo the TOTAL
	// slot count — reserved seats plus lending seats — so an owner left
	// beyond granted would pin static tasks to a lending seat, which is
	// only served when a floater happens to attach: the member would
	// straggle behind whatever big job the floaters are busy with.
	for _, t := range fused.Tasks {
		t.Owner %= granted
	}
	e.fusionBatches.Add(1)
	e.fusedJobs.Add(int64(len(members)))
	comp := &Job{
		role:    roleComposite,
		lane:    laneSmall,
		class:   core.ClassSmall,
		granted: granted,
		members: members,
		startBy: minStart,
		queued:  now,
		started: now,
		done:    make(chan struct{}),
		finish:  func(rt.Result) any { return nil },
	}
	// The forest always runs under the hybrid policy: the members'
	// graphs already carry their own static/dynamic split (shaped by
	// each member's Scheduler choice), and hybrid's shared section is
	// what the pool's floaters lend into.
	e.launch(comp, fused.Graph, sched.NewHybrid(), core.Options{})
}

// finishFusedMember completes one member of a fused composite, called
// from the worker goroutine that executed the member's last task. The
// finishing CAS elects it against the composite-failure path.
func (e *Engine) finishFusedMember(m *Job) {
	if !m.finishing.CompareAndSwap(false, true) {
		return
	}
	// Members assemble from their own graph layout; the composite's
	// runtime counters are not attributable per member, so Makespan and
	// Counters stay zero on fused results.
	m.result = m.finish(rt.Result{})
	e.completeJob(m, false)
}

// launch builds the executor for a prepared solo or composite job,
// publishes its open seats and lending slots, and drives seat 0.
func (e *Engine) launch(j *Job, g *dag.Graph, pol sched.Policy, opt core.Options) {
	helpers := e.floaters()
	ex, err := rt.NewExecutor(g, pol, rt.Options{
		Workers:           j.granted,
		Helpers:           helpers,
		ExternalWorkspace: true,
		Trace:             opt.Trace,
		Noise:             opt.Noise,
		Lend:              func() { e.lendSignal(j) },
	})
	if err != nil {
		j.err = err
		e.completeJob(j, false)
		return
	}
	j.ex = ex
	j.helperSlots = make(chan int, helpers)
	for s := 0; s < helpers; s++ {
		j.helperSlots <- j.granted + s
	}
	// The seeded roots may already include shared work.
	j.lendHint.Store(true)
	j.nextSeat = 1 // seat 0 is ours
	e.mu.Lock()
	e.run = append(e.run, j)
	// Open seats and lending slots are up for grabs; queued jobs may
	// also now start on other workers.
	e.work.Broadcast()
	e.mu.Unlock()
	e.driveJob(j, 0)
}

// lendSignal is the executor's Lend hook: shared work was published
// while every reserved worker of j was busy. Raise the job's hint and
// poke one parked pool worker. The engine lock is taken so the signal
// cannot slip between a parked worker's last scan and its wait.
func (e *Engine) lendSignal(j *Job) {
	if j.lendHint.CompareAndSwap(false, true) {
		e.mu.Lock()
		e.work.Signal()
		e.mu.Unlock()
	}
}

// driveJob attaches as reserved worker `seat` until the run completes;
// the first driver back finalizes the job.
func (e *Engine) driveJob(j *Job, seat int) {
	j.ex.Drive(seat)
	if !j.finishing.CompareAndSwap(false, true) {
		return
	}
	res, err := j.ex.Wait()
	if err != nil {
		j.err = err
	} else {
		j.result = j.finish(res)
	}
	e.completeJob(j, true)
}

// completeJob releases the job's share of the pool, retires it from
// the running set, records per-class stats and wakes submitters
// waiting on admission capacity. Role-aware: solo jobs release both
// their reservation and their admission slot, fused members only the
// slot (the composite holds the shared reservation), composites only
// the reservation — and a failed composite fails every member whose
// completion callback never fired.
func (e *Engine) completeJob(j *Job, running bool) {
	var orphans []*Job
	e.mu.Lock()
	j.state = jsDone
	switch j.role {
	case roleSolo:
		e.reservedInUse -= j.granted
		if j.lane == laneBig {
			e.bigReserved -= j.granted
		}
		e.inflight--
	case roleMember:
		e.inflight--
	case roleComposite:
		e.reservedInUse -= j.granted
		if j.err != nil {
			// The forest aborted: members that never reached their
			// OnDone inherit the composite's error. The finishing CAS
			// excludes members completing normally right now.
			for _, m := range j.members {
				if m.finishing.CompareAndSwap(false, true) {
					orphans = append(orphans, m)
				}
			}
		}
	}
	if running {
		for i, r := range e.run {
			if r == j {
				e.run = append(e.run[:i], e.run[i+1:]...)
				break
			}
		}
	}
	if j.role != roleComposite {
		idx := classIdx(j.class)
		if j.err != nil {
			e.classFailed[idx]++
		} else {
			e.classDone[idx]++
			e.ring(idx).add(float64(time.Since(j.queued).Microseconds()) / 1e3)
		}
	}
	// Fold successful solo/composite spans into the per-class
	// service-rate EWMAs; members overlap their batch mates, so their
	// spans would skew it.
	if j.err == nil && j.role != roleMember && !j.started.IsZero() {
		e.observeRateLocked(j, time.Since(j.started))
	}
	stop := j.stopCancel
	e.work.Broadcast()
	// Exactly one admission slot was freed: wake one blocked
	// submitter, not all of them (Close is the broadcast case).
	e.capa.Signal()
	e.mu.Unlock()
	if stop != nil {
		stop()
	}
	if j.role != roleComposite {
		if j.err != nil {
			e.jobsFailed.Add(1)
		} else {
			e.jobsDone.Add(1)
		}
	}
	if !j.started.IsZero() {
		j.span = time.Since(j.started)
	}
	close(j.done)
	for _, m := range orphans {
		m.err = j.err
		e.completeJob(m, false)
	}
}
