// Package rt executes a task dependency graph with real goroutine
// workers, performing the actual factorization arithmetic on the
// layout's storage. Workers pull from a sched.Policy (per-worker owner
// queues, each with its own lock, and one shared heap), dependency
// resolution is atomic on the graph itself (dag.ResolveSuccessors),
// progress tracking is two atomic counters, idle workers spin briefly
// and then park on a per-worker semaphore instead of a broadcast
// condvar, and trace spans are buffered per worker and merged once at
// the end. The discrete-event simulator in internal/sim drives the same
// policy objects from its single-threaded event loop, so the scheduling
// decisions under study stay deterministic there while rt runs them at
// full hardware concurrency; rt is the correctness-bearing mode
// (numerics verified end to end) and the mode the library, the engine
// and the examples run in.
//
// A run owns its goroutines: the caller drives worker 0, one goroutine
// per further worker drives the rest, and all of them are joined before
// the result is read. The kernels keep their own pack buffers; a run
// manages no kernel memory.
package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options configures a real execution.
type Options struct {
	// Workers is the worker count; must be >= 1. Workers drive the run
	// to completion (they park when idle and are woken by readiness
	// events).
	Workers int
	// Trace, when non-nil, receives one span per executed task.
	Trace *trace.Trace
	// Noise, when non-nil, is invoked after each task completion with
	// the worker id and returns an artificial delay to inject — the
	// failure-injection hook used to emulate transient OS interference
	// (the paper's delta_i) in real mode.
	Noise func(worker int) time.Duration
}

// Result reports a real execution.
type Result struct {
	Makespan time.Duration
	Counters sched.Counters
}

// spinCount is how many failed dequeue attempts a worker tolerates
// (yielding between attempts) before it parks. Spinning bridges the
// common short gaps between task completions without paying the
// park/unpark futex round trip; parking keeps long waits off the CPU.
const spinCount = 64

// executor is the shared state of one run. Worker ids are [0,Workers);
// each is driven by exactly one goroutine for the whole run.
type executor struct {
	g     *dag.Graph
	pol   sched.Policy
	n     int64
	opt   Options
	start time.Time

	// outstanding counts tasks that are ready or running. A completing
	// worker increments it for each newly ready successor before
	// decrementing it for itself, so it can only reach zero when no
	// task is queued or in flight anywhere — at which point it can
	// never rise again. outstanding==0 with completed<n is therefore a
	// sound and stable stuck-graph verdict, with no lock and no
	// multi-counter read races.
	outstanding atomic.Int64
	completed   atomic.Int64
	failure     atomic.Pointer[error]

	wk waker

	// Per-worker span buffers: workers never touch the shared Trace
	// during the run, so the hot path has no shared-slice growth and no
	// false sharing on neighbouring timelines.
	spans [][]trace.Span

	doneOnce sync.Once
	makespan time.Duration
}

// newExecutor prepares a run of g under the given policy, which it
// resets and then owns until the run's result is read (one policy
// object serves one run at a time). The graph's dependency counters are
// armed and the roots are seeded. A structurally stuck graph (a bug in
// the DAG builder) is reported here.
func newExecutor(g *dag.Graph, pol sched.Policy, opt Options) (*executor, error) {
	if opt.Workers < 1 {
		return nil, fmt.Errorf("rt: need at least one worker, got %d", opt.Workers)
	}
	e := &executor{g: g, pol: pol, n: int64(len(g.Tasks)), opt: opt}
	if e.n == 0 {
		return e, nil
	}
	e.pol.Reset(opt.Workers)

	roots := g.ResetDeps()
	if len(roots) == 0 {
		return nil, fmt.Errorf("rt: graph %q stuck with 0/%d tasks done", g.Name, e.n)
	}
	e.wk.init(opt.Workers)
	e.outstanding.Store(int64(len(roots)))
	for _, t := range roots {
		e.pol.Ready(t)
	}
	if opt.Trace != nil {
		e.spans = make([][]trace.Span, opt.Workers)
	}
	e.start = time.Now()
	return e, nil
}

func (e *executor) done() bool {
	return e.failure.Load() != nil || e.completed.Load() == e.n
}

// finish records the end of the run exactly once and releases every
// parked worker.
func (e *executor) finish() {
	e.doneOnce.Do(func() { e.makespan = time.Since(e.start) })
	e.wk.wakeAll()
}

// fail records the first error and ends the run.
func (e *executor) fail(err error) {
	e.failure.CompareAndSwap(nil, &err)
	e.finish()
}

// drive runs worker w's dispatch loop until the run is over and keeps
// the worker's trace spans.
func (e *executor) drive(w int) {
	local := e.loop(w)
	if e.spans != nil {
		e.spans[w] = local
	}
}

// result is the run's outcome, read once every worker has returned.
func (e *executor) result() (Result, error) {
	// Workers have returned, so any shared panel handle still packed
	// belongs to a task that never ran (aborted run) — reclaim its
	// cache budget. A no-op on the success path.
	e.g.ReleasePanels()
	if e.n == 0 {
		return Result{}, nil
	}
	if e.opt.Trace != nil {
		for w, s := range e.spans {
			if len(s) == 0 {
				continue
			}
			// The caller may have sized the trace for fewer workers
			// than the run has; grow it so every worker's spans land
			// on their own timeline.
			e.opt.Trace.EnsureWorkers(w + 1)
			e.opt.Trace.Merge(w, s)
		}
	}
	if errp := e.failure.Load(); errp != nil {
		return Result{}, *errp
	}
	return Result{Makespan: e.makespan, Counters: e.pol.Counters()}, nil
}

// Run executes g to completion under the given policy and returns the
// wall-clock makespan. A structurally stuck graph is reported as an
// error, as is a panicking task. The calling goroutine drives worker 0
// and opt.Workers-1 goroutines drive the rest; all of them have
// returned before the result is read.
func Run(g *dag.Graph, pol sched.Policy, opt Options) (Result, error) {
	e, err := newExecutor(g, pol, opt)
	if err != nil {
		return Result{}, err
	}
	if e.n == 0 {
		return e.result()
	}
	var wg sync.WaitGroup
	wg.Add(opt.Workers - 1)
	for w := 1; w < opt.Workers; w++ {
		go func() {
			defer wg.Done()
			e.drive(w)
		}()
	}
	e.drive(0)
	wg.Wait()
	return e.result()
}

// loop is worker w's dispatch loop; it returns when the run is over,
// with the worker's locally buffered trace spans.
func (e *executor) loop(w int) []trace.Span {
	var local []trace.Span
	scratch := make([]*dag.Task, 0, 8)
	for {
		t := e.next(w)
		if t == nil {
			return local
		}
		// The hot loop only reads the clock when someone consumes the
		// timestamps; on a no-op task graph two time.Since calls would
		// otherwise dominate the dispatch cost BenchmarkDispatch exists
		// to measure.
		var t0 float64
		if e.opt.Trace != nil {
			t0 = time.Since(e.start).Seconds()
		}
		if t.Run != nil {
			if err := runTask(t); err != nil {
				e.fail(err)
				return local
			}
		}
		var t1 float64
		if e.opt.Trace != nil {
			t1 = time.Since(e.start).Seconds()
			local = append(local, trace.Span{
				TaskID: t.ID, Label: t.Kind.String()[0], Start: t0, End: t1,
			})
		}
		if e.opt.Noise != nil {
			if d := e.opt.Noise(w); d > 0 {
				spinFor(d)
				if e.opt.Trace != nil {
					local = append(local, trace.Span{
						TaskID: -1, Label: 'N', Start: t1, End: time.Since(e.start).Seconds(),
					})
				}
			}
		}

		// Completion: resolve successors atomically and publish the
		// newly ready ones before giving up this task's own claim on
		// `outstanding` (see the field comment for why this order makes
		// the stuck check sound).
		scratch = e.g.ResolveSuccessors(t, scratch[:0])
		if len(scratch) > 0 {
			e.outstanding.Add(int64(len(scratch)))
			for _, s := range scratch {
				if owner := e.pol.Ready(s); owner != sched.AnyWorker {
					e.wk.wakePinned(owner, w)
				} else {
					e.wk.wakeAny(w)
				}
			}
		}
		done := e.completed.Add(1)
		left := e.outstanding.Add(-1)
		if done == e.n {
			e.finish()
			return local
		}
		if left == 0 {
			// outstanding hit zero: nothing is queued or in flight
			// anywhere, so `completed` is final — but our own `done`
			// snapshot may predate other workers' final increments, so
			// re-read it before declaring the graph stuck.
			if final := e.completed.Load(); final != e.n {
				e.fail(fmt.Errorf("rt: graph %q stuck with %d/%d tasks done", e.g.Name, final, e.n))
			}
			return local
		}
	}
}

// next returns worker w's next task, spinning briefly and then parking
// while the queues are empty. It returns nil when the run is over.
func (e *executor) next(w int) *dag.Task {
	spins := 0
	for {
		if e.done() {
			return nil
		}
		if t := e.pol.Next(w); t != nil {
			return t
		}
		if spins < spinCount {
			spins++
			runtime.Gosched()
			continue
		}
		// Nothing this worker may pop and the alternative is sleeping:
		// take another owner's backlog (the policy's third tier). Help
		// is asked only here, after the spin phase, so a balanced run
		// never pays the migration.
		if t := e.pol.Help(w); t != nil {
			return t
		}
		// Publish the parked flag, then re-check: a waker publishes its
		// task before scanning the flags, so either it sees us parked
		// and deposits a permit, or this re-check sees its task — a
		// wake between our failed Next and the park cannot be lost. The
		// re-check covers everything a wake can be for: our own queue,
		// the shared heap, and another owner's backlog.
		e.wk.prepare(w)
		if e.done() {
			e.wk.cancel(w)
			return nil
		}
		t := e.pol.Next(w)
		if t == nil {
			t = e.pol.Help(w)
		}
		if t != nil {
			e.wk.cancel(w)
			return t
		}
		e.wk.park(w)
		spins = 0
	}
}

// runTask executes a task's closure, converting panics (numerical
// failures such as a singular pivot block or a non-SPD input) into
// errors so a worker goroutine never takes the whole process down.
func runTask(t *dag.Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rt: task %d (%v) failed: %v", t.ID, t.Kind, r)
		}
	}()
	t.Run()
	return nil
}

// spinFor burns CPU for roughly d, emulating a compute-stealing daemon
// rather than a blocking wait (sleeping would free the core, which is
// not what OS noise does). The deadline is checked once per ~16k
// additions (pre-checked, so a non-positive d burns nothing): time.Now
// itself costs tens of nanoseconds, and calling it every 1024 additions
// (as the seed runtime did) made the spin mostly clock calls rather
// than arithmetic, so the burned compute per injected delta depended on
// the clock source. The coarser check bounds the overshoot of one
// block (~16k adds) while keeping clock overhead under 1%.
func spinFor(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 16384; i++ {
			x += float64(i)
		}
	}
	_ = x
}
