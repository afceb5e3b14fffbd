// Package engine is the factorization service: one pool of Workers
// runs many Factor/Solve jobs concurrently under admission control.
//
// The pool is partitioned statically across jobs. Each started job is
// granted a share of the pool's workers and runs on that many
// goroutines of its own (core.Prepared.Run), and the paper's hybrid
// static/dynamic split runs inside the job, where the policy's shared
// queue and help tier absorb load imbalance among the job's own
// workers. A job's goroutines end with it; the pool is a count of
// workers, not a set of goroutines.
//
// Admission routes each job to one of two first-in first-out lanes
// (see admission.go): jobs are classified small or large by a flop cost
// model, small jobs take an express lane and each run on one goroutine
// by default (a one-worker share), and the big lane's head starts only
// when the express lane is empty, so one huge factorization cannot
// head-of-line-block a stream of tiny solves. The submission context is
// a job's only stop signal: a job still queued when its context is
// cancelled or its deadline passes is withdrawn.
//
// A job whose requested share is not available starts anyway with what
// the pool can guarantee (at least one worker), so service is
// work-conserving and a job can never be starved by wide requests. The
// granted share is the parallelism the job's task graph is built for:
// its result is bit-identical to a one-shot core.Factor at
// Workers=Granted (the graph's dataflow fixes the arithmetic;
// scheduling only reorders it).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
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
	// Workers is the pool size: at most this many goroutines run jobs'
	// tasks at once (default runtime.NumCPU()).
	Workers int
	// MaxInflight bounds admitted jobs (queued + running); further
	// submissions block (Submit) or fail (TrySubmit). Default
	// 4*Workers.
	MaxInflight int
	// DynamicRatio is ignored: every job runs on its static share of
	// the pool. The field stays for the benchmark module, which sets
	// it. A job's own dynamic share is core.Options.DynamicRatio.
	DynamicRatio float64
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * o.Workers
	}
}

// Stats is a point-in-time snapshot of the engine.
type Stats struct {
	// Workers is the pool size.
	Workers int
	// Pending counts queued jobs across both lanes (Small.Queued +
	// Large.Queued); Active counts started, unfinished jobs;
	// ReservedInUse is the sum of their grants.
	Pending, Active, ReservedInUse int
	// JobsDone/JobsFailed count completed jobs of both classes.
	JobsDone, JobsFailed int64
	// Lends and FusedJobs are always 0: no worker runs another job's
	// tasks, and every job runs on goroutines of its own. The fields stay
	// for the benchmark module, which reads them. Shed counts jobs
	// whose context's deadline passed before they started, refused at
	// submission or withdrawn from a lane; Cancelled counts queued jobs
	// withdrawn because their context was cancelled.
	Lends, FusedJobs, Shed, Cancelled int64
	// Small and Large are the per-class latency digests.
	Small, Large ClassStats
	Closed       bool
}

// Engine is the factorization service. Create with New, feed with
// Submit/TrySubmit, and Close when done.
type Engine struct {
	opt Options

	mu   sync.Mutex
	capa *sync.Cond // submitters wait here for admission capacity
	// lanes are served in order and indexed by Class: lanes[ClassSmall]
	// is the express lane, lanes[ClassLarge] the big lane.
	lanes [2]lane
	// inflight = queued + started-but-unfinished jobs; bounded by
	// MaxInflight.
	inflight      int
	reservedInUse int
	closed        bool

	wg sync.WaitGroup // started jobs

	shedCount atomic.Int64
	cancelled atomic.Int64
}

// New starts an engine. The error is always nil.
func New(opt Options) (*Engine, error) {
	opt.fill()
	e := &Engine{opt: opt}
	e.capa = sync.NewCond(&e.mu)
	return e, nil
}

// Close rejects queued jobs and waits for started jobs to finish. Safe
// to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	var dropped []*Job
	for i := range e.lanes {
		q := &e.lanes[i]
		live := q.drain()
		q.failed += int64(len(live))
		dropped = append(dropped, live...)
	}
	e.inflight -= len(dropped)
	e.capa.Broadcast()
	e.mu.Unlock()
	for _, j := range dropped {
		j.err = ErrClosed
		if j.stopCancel != nil {
			j.stopCancel()
		}
		close(j.done)
	}
	e.wg.Wait()
}

// Stats returns a snapshot of the engine's state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Workers:       e.opt.Workers,
		Pending:       e.lanes[0].depth + e.lanes[1].depth,
		ReservedInUse: e.reservedInUse,
		Small:         e.lanes[0].stats(),
		Large:         e.lanes[1].stats(),
		Closed:        e.closed,
	}
	// Every admitted job that is not in a lane has started.
	s.Active = e.inflight - s.Pending
	e.mu.Unlock()
	s.JobsDone = s.Small.Done + s.Large.Done
	s.JobsFailed = s.Small.Failed + s.Large.Failed
	s.Shed = e.shedCount.Load()
	s.Cancelled = e.cancelled.Load()
	return s
}

// ---------------------------------------------------------------------
// Jobs.

// Work is one submittable job of any kind: what admission needs to know
// about it before it runs (a flop estimate and a default share) and how
// to run it once a share has been granted. FactorWork, CholeskyWork and
// SolveWork build the three kinds; a further kind is one more
// constructor, not an engine change.
type Work struct {
	// flops is the admission cost model: the leading-order flop count
	// that classifies the job small or large. It deliberately ignores
	// lower-order terms — admission needs magnitudes, not exact counts.
	flops float64
	// wide is the unset-Workers share request of a large-class job: the
	// whole pool for a factorization, one worker for a solve — a solve
	// is O(n²·nrhs) against the factorization's O(n³), so a service that
	// doesn't ask for a wider share should not have tiny solves
	// reserving the whole pool. An explicitly requested share is
	// honoured for every kind.
	wide bool
	// run builds the job's task graph at the granted share
	// (core.Options.Workers) and executes it through core.Prepared.Run.
	run func(core.Options) (any, error)
	// err is the constructor's input check, reported by Submit before
	// the job takes an admission slot.
	err error
}

// run executes a core.Prepare* result at the share it was built for.
func run[R any](p *core.Prepared[R], err error) (any, error) {
	if err != nil {
		return nil, err
	}
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	return res, nil
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
		// LU of m x n: r^2 * (max(m,n) - r/3); 2/3 n^3 when square.
		flops: r * r * (math.Max(m, n) - r/3),
		wide:  true,
		run: func(opt core.Options) (any, error) {
			return run(core.PrepareFactor(a, opt))
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
		flops: n * n * n / 3,
		wide:  true,
		run: func(opt core.Options) (any, error) {
			return run(core.PrepareCholesky(a, opt))
		},
	}
}

// SolveWork is a solve of f (a completed LU or Cholesky factorization)
// against the n x nrhs block b (not modified). It executes as a blocked
// triangular-solve graph on the pool at the job's granted share
// (opt.Workers requests the share; opt.Scheduler/Block/DynamicRatio
// shape the graph), so big solves parallelize exactly like
// factorizations. The Result is a *core.Solution.
func SolveWork(f core.Factored, b *mat.Dense) Work {
	if f == nil {
		return Work{err: errors.New("engine: solve needs a completed factorization")}
	}
	if empty(b) {
		return Work{err: errors.New("engine: solve needs a non-empty right-hand side")}
	}
	n, nrhs := float64(b.Rows), float64(b.Cols)
	return Work{
		// Forward + backward sweep, n^2*nrhs each.
		flops: 2 * n * n * nrhs,
		run: func(opt core.Options) (any, error) {
			return run(f.PrepareSolve(b, opt))
		},
	}
}

// Job is the handle of one submitted Work. Wait (or Done) observes
// completion; Result is valid afterwards. Every kind of job executes as
// a task graph on goroutines of its own, as many as its granted share.
type Job struct {
	work   Work
	reqOpt core.Options
	class  Class

	// Admission state; all guarded by Engine.mu unless noted.
	state jobState
	// stopCancel releases the submission context's cancellation hook.
	stopCancel func() bool

	// Execution state.
	granted int

	queued, started time.Time
	queueWait, span time.Duration

	done   chan struct{}
	result any
	err    error
}

// req is the requested static share. An unset request is one worker
// for a small-class job — small jobs get their throughput from running
// side by side, not from a wide personal share — and the kind's
// default (Work.wide) otherwise.
func (j *Job) req(pool int) int {
	if j.reqOpt.Workers > 0 {
		return j.reqOpt.Workers
	}
	if j.work.wide && j.class != ClassSmall {
		return pool
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
// is bit-identical to a one-shot core.Factor at Workers=Granted.
func (j *Job) Granted() int { return j.granted }

// Class is the job's admission class; valid once the submission has
// returned.
func (j *Job) Class() Class { return j.class }

// QueueWait is the time the job spent admitted but not started; Span
// is its start-to-completion service time.
func (j *Job) QueueWait() time.Duration { return j.queueWait }
func (j *Job) Span() time.Duration      { return j.span }

// Submit admits w under opt, blocking while the admission queue is
// full. opt.Workers is the requested static share; the engine may grant
// less under load (at least 1), recorded in Job.Granted. ctx is the
// job's only stop signal, its deadline the job's deadline: a context
// that is done or past its deadline refuses the submission, ending it
// unblocks a submission waiting for admission capacity, and withdraws
// the job if it is still queued (the job then fails with the context's
// cause instead of executing); a job already started runs to
// completion.
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
func (e *Engine) SubmitSolveMany(f core.Factored, b *mat.Dense, opt core.Options) (*Job, error) {
	return e.Submit(context.Background(), SolveWork(f, b), opt)
}

// admit classifies and enqueues the job. ctx ending unblocks the
// capacity wait and, once queued, withdraws the job (cancelQueued).
func (e *Engine) admit(ctx context.Context, w Work, opt core.Options, wait bool) (*Job, error) {
	if w.err != nil {
		return nil, w.err
	}
	j := &Job{work: w, reqOpt: opt, class: classOf(w.flops), done: make(chan struct{})}
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
		if err := ctxErr(ctx); err != nil {
			e.mu.Unlock()
			if err == context.DeadlineExceeded {
				e.shedCount.Add(1)
			}
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
	j.queued = time.Now()
	e.inflight++
	e.lanes[j.class].push(j)
	if ctx.Done() != nil {
		// Registered under e.mu so a firing cancellation always observes
		// the queued state (cancelQueued re-checks it under the lock).
		j.stopCancel = context.AfterFunc(ctx, func() { e.cancelQueued(ctx, j) })
	}
	e.startLocked()
	e.mu.Unlock()
	return j, nil
}

// ctxErr is ctx.Err, except that a deadline already past reads as
// exceeded before the context's timer has fired.
func ctxErr(ctx context.Context) error {
	err := ctx.Err()
	if d, ok := ctx.Deadline(); ok && err == nil && !time.Now().Before(d) {
		err = context.DeadlineExceeded
	}
	return err
}

// cancelQueued withdraws a job whose submission context ended while it
// was still waiting in a lane: it is marked failed with the context's
// cause and never executes, and counts as shed when the context's
// deadline passed. Jobs already started run to completion.
func (e *Engine) cancelQueued(ctx context.Context, j *Job) {
	e.mu.Lock()
	if j.state != jsQueued {
		e.mu.Unlock()
		return
	}
	j.state = jsDone
	q := &e.lanes[j.class]
	q.depth--
	q.failed++
	e.inflight--
	e.capa.Signal()
	e.mu.Unlock()
	j.err = context.Cause(ctx)
	if ctx.Err() == context.DeadlineExceeded {
		e.shedCount.Add(1)
	} else {
		e.cancelled.Add(1)
	}
	close(j.done)
}

// ---------------------------------------------------------------------
// Running jobs.

// startLocked starts lane heads while workers are free: each popped job
// runs on goroutines of its own. Called whenever a job is queued or a
// grant is released.
func (e *Engine) startLocked() {
	for j := e.startableLocked(); j != nil; j = e.startableLocked() {
		e.wg.Add(1)
		go e.runJob(j)
	}
}

// startableLocked pops the head of the first non-empty lane, express
// first, and charges its grant — its request, capped by the workers left
// unreserved — to the pool. It returns nil when the lanes are empty or
// no worker is free.
func (e *Engine) startableLocked() *Job {
	for i := range e.lanes {
		q := &e.lanes[i]
		head := q.peek()
		if head == nil {
			continue
		}
		g := min(head.req(e.opt.Workers), e.opt.Workers-e.reservedInUse)
		if g <= 0 {
			return nil
		}
		q.pop()
		head.state = jsStarted
		head.granted = g
		e.reservedInUse += g
		return head
	}
	return nil
}

// runJob runs a started job at its granted share on the calling
// goroutine and granted-1 more, and completes the job. Factor, Cholesky
// and solve jobs of both classes all take this path — a solve is a
// blocked triangular-solve graph, not an inline call, so it executes at
// the granted share like any factorization. A panicking build — a
// malformed matrix shape, a nil factorization behind core.Factored —
// is converted to a job error so a bad submission can never take down
// the process.
func (e *Engine) runJob(j *Job) {
	defer e.wg.Done()
	j.started = time.Now()
	j.queueWait = j.started.Sub(j.queued)
	opt := j.reqOpt
	opt.Workers = j.granted
	func() {
		defer func() {
			if r := recover(); r != nil {
				j.result, j.err = nil, fmt.Errorf("engine: prepare %v", r)
			}
		}()
		j.result, j.err = j.work.run(opt)
	}()
	e.completeJob(j)
}

// completeJob releases the job's grant and admission slot, records
// per-class stats, starts what the freed workers can take and wakes a
// submitter waiting on admission capacity.
func (e *Engine) completeJob(j *Job) {
	e.mu.Lock()
	j.state = jsDone
	e.reservedInUse -= j.granted
	e.inflight--
	if q := &e.lanes[j.class]; j.err != nil {
		q.failed++
	} else {
		q.done++
		q.lat.add(float64(time.Since(j.queued).Microseconds()) / 1e3)
	}
	stop := j.stopCancel
	e.startLocked()
	// Exactly one admission slot was freed: wake one blocked
	// submitter, not all of them (Close is the broadcast case).
	e.capa.Signal()
	e.mu.Unlock()
	if stop != nil {
		stop()
	}
	j.span = time.Since(j.started)
	close(j.done)
}
