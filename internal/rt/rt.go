// Package rt executes a task dependency graph with real goroutine
// workers, performing the actual factorization arithmetic on the
// layout's storage. Workers pull from a sched.Policy (per-worker owner
// queues, each with its own lock, and one shared heap), dependency
// resolution is atomic on the graph itself (dag.ResolveSuccessors),
// progress tracking is two atomic counters, idle workers spin briefly
// and then park on an eventcount instead of a broadcast condvar, and
// trace spans are buffered per worker and merged once at the end. The
// discrete-event simulator in internal/sim drives the same policy
// objects from its single-threaded event loop, so the scheduling
// decisions under study stay deterministic there while rt runs them at
// full hardware concurrency; rt is the correctness-bearing mode
// (numerics verified end to end) and the mode the examples and the
// tuning CLI run in.
//
// An execution is an Executor: a drivable object that workers attach
// to (Drive, one goroutine per worker id) and detach from, rather
// than a function that owns its goroutines. Run is the one-shot
// convenience that spawns a goroutine per worker and waits — the
// spawn-per-call mode the resident engine (internal/engine) amortizes
// away.
package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/kernel"
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

// Executor is the shared state of one execution: a run workers attach
// to and detach from. Worker ids are [0,Workers); each must be driven
// by exactly one goroutine, which stays until the run completes. The
// Executor is safe for concurrent Drive calls on distinct ids.
type Executor struct {
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

	// attached counts workers currently inside Drive; Wait
	// drains it to zero before touching policy counters or spans.
	// Guarded by attachMu (attach/detach are per-worker-per-run, not
	// per-task, so the lock is off the hot path); attachCond signals
	// the drain.
	attachMu   sync.Mutex
	attachCond *sync.Cond
	attached   int

	wk waker

	// Per-worker span buffers: workers never touch the shared Trace
	// during the run, so the hot path has no shared-slice growth and no
	// false sharing on neighbouring timelines.
	spans [][]trace.Span

	doneOnce sync.Once
	doneCh   chan struct{}
	makespan time.Duration

	waitOnce sync.Once
	result   Result
	waitErr  error
}

// NewExecutor prepares an execution of g under the given policy, which
// it resets and then owns until Wait returns (one policy object serves
// one run at a time). It reserves no kernel workspace: Run does, and
// the resident engine holds one pool-wide reservation for all its runs. The graph's dependency counters are armed and
// the roots are seeded; the run starts making progress as soon as the
// first worker attaches. A structurally stuck graph (a bug in the DAG
// builder) is reported here.
func NewExecutor(g *dag.Graph, pol sched.Policy, opt Options) (*Executor, error) {
	if opt.Workers < 1 {
		return nil, fmt.Errorf("rt: need at least one worker, got %d", opt.Workers)
	}
	e := &Executor{
		g:      g,
		pol:    pol,
		n:      int64(len(g.Tasks)),
		opt:    opt,
		doneCh: make(chan struct{}),
	}
	e.attachCond = sync.NewCond(&e.attachMu)
	if e.n == 0 {
		close(e.doneCh)
		return e, nil
	}
	e.pol.Reset(g, opt.Workers)

	roots := g.ResetDeps()
	if len(roots) == 0 {
		return nil, fmt.Errorf("rt: graph %q stuck with 0/%d tasks done", g.Name, e.n)
	}
	e.wk.init(opt.Workers)
	e.outstanding.Store(int64(len(roots)))
	for _, t := range roots {
		e.pol.Ready(sched.SeedWorker, t)
	}
	if opt.Trace != nil {
		e.spans = make([][]trace.Span, opt.Workers)
	}
	e.start = time.Now()
	return e, nil
}

func (e *Executor) done() bool {
	return e.failure.Load() != nil || e.completed.Load() == e.n
}

// Done reports whether the run has completed (successfully or not).
func (e *Executor) Done() bool {
	select {
	case <-e.doneCh:
		return true
	default:
		return false
	}
}

// finish records the end of the run exactly once and releases every
// parked worker.
func (e *Executor) finish() {
	e.doneOnce.Do(func() {
		e.makespan = time.Since(e.start)
		close(e.doneCh)
	})
	e.wk.wakeAll()
}

// fail records the first error and ends the run.
func (e *Executor) fail(err error) {
	e.failure.CompareAndSwap(nil, &err)
	e.finish()
}

// Drive attaches the calling goroutine as worker w and runs the
// dispatch loop until the run completes. Exactly one goroutine may
// drive each worker id.
func (e *Executor) Drive(w int) {
	if e.n == 0 || !e.attach() {
		return
	}
	local := e.loop(w, e.takeSpans(w))
	e.putSpans(w, local)
	e.detach()
}

// attach registers the caller in `attached`, or reports false if the
// run is already over. The done check happens under attachMu, the same
// lock Wait's drain holds: a late attacher either sees done here (and
// backs out without touching the span buffers Wait is about to read)
// or is counted before the drain reads zero and holds it open until
// detach — span buffers are never touched concurrently with Wait.
func (e *Executor) attach() bool {
	e.attachMu.Lock()
	defer e.attachMu.Unlock()
	if e.Done() {
		return false
	}
	e.attached++
	return true
}

func (e *Executor) detach() {
	e.attachMu.Lock()
	e.attached--
	if e.attached == 0 {
		e.attachCond.Broadcast()
	}
	e.attachMu.Unlock()
}

func (e *Executor) takeSpans(w int) []trace.Span {
	if e.spans == nil {
		return nil
	}
	return e.spans[w]
}

func (e *Executor) putSpans(w int, s []trace.Span) {
	if e.spans != nil {
		e.spans[w] = s
	}
}

// Wait blocks until the run completes, drains all attached workers,
// and returns the merged result. The one-shot Run calls it after
// spawning its drivers; the engine calls it from the worker that
// observes completion first.
func (e *Executor) Wait() (Result, error) {
	<-e.doneCh
	// Counters and spans must not be read while a worker is still
	// inside Next/Ready; block until the attached count drains (parked
	// workers were woken by finish, workers mid-task finish that task
	// first).
	e.attachMu.Lock()
	for e.attached != 0 {
		e.attachCond.Wait()
	}
	e.attachMu.Unlock()
	e.waitOnce.Do(func() {
		// Workers have drained, so any shared panel handle still packed
		// belongs to a task that never ran (aborted run) — reclaim its
		// cache budget. A no-op on the success path.
		e.g.ReleasePanels()
		if e.n == 0 {
			return
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
			e.waitErr = *errp
			return
		}
		e.result = Result{Makespan: e.makespan, Counters: e.pol.Counters()}
	})
	return e.result, e.waitErr
}

// Run executes g to completion under the given policy and returns the
// wall-clock makespan: the one-shot mode that spawns a goroutine per
// worker and tears everything down afterwards. A structurally stuck
// graph is reported as an error, as is a panicking task. Around the run
// it reserves one packed-GEMM workspace per worker, so no task pays the
// pack-buffer allocation mid-factorization (reservations are refcounted
// across overlapping runs).
func Run(g *dag.Graph, pol sched.Policy, opt Options) (Result, error) {
	ws := kernel.Reserve(opt.Workers)
	defer ws.Release()
	return drive(g, pol, opt)
}

// drive is Run without the workspace reservation.
func drive(g *dag.Graph, pol sched.Policy, opt Options) (Result, error) {
	e, err := NewExecutor(g, pol, opt)
	if err != nil {
		return Result{}, err
	}
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			e.Drive(worker)
		}(w)
	}
	wg.Wait()
	return e.Wait()
}

// loop is worker w's dispatch loop; it returns when the run is over,
// with the worker's locally buffered trace spans.
func (e *Executor) loop(w int, local []trace.Span) []trace.Span {
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
				TaskID: t.ID, Label: trace.KindLabel(t.Kind.String()), Start: t0, End: t1,
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
				if owner := e.pol.Ready(w, s); owner != sched.AnyWorker {
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
func (e *Executor) next(w int) *dag.Task {
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
