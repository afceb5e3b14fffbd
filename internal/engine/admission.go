package engine

// Traffic-shaped admission: two-lane, class-aware, SLO-aware
// scheduling of the engine's queue.
//
// Under a realistic mix — many tiny factors and solves plus a few huge
// factorizations — arrival-order admission has two pathologies the
// paper's non-uniform-load analysis (Beaumont & Marchal) predicts: tiny
// jobs each pay a whole-worker static reservation, and one huge job at
// the queue head blocks everyone behind it. Admission therefore routes
// by job *class*, not arrival order:
//
//   - small jobs enter an express lane; when a worker picks the lane
//     up it fuses every waiting (fusable) small job into one composite
//     forest (dag.Fuse) that shares a single reservation;
//   - big jobs enter a lane whose total reservation is bounded to a
//     configurable share of the pool whenever small jobs are waiting,
//     so they cannot head-of-line-block the express traffic;
//   - within each lane jobs are ordered by laxity — the latest moment
//     the job may start and still meet its deadline — so SLO traffic
//     outranks best-effort arrivals; and
//   - a submission whose estimated service time already exceeds its
//     deadline is shed with ErrDeadlineInfeasible before it consumes
//     an admission slot or a reservation (the HTTP tier turns this
//     into a cheap 503).

import (
	"container/heap"
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/core"
)

// ErrDeadlineInfeasible is returned by submissions whose estimated
// service time already exceeds their deadline: queueing them could only
// burn workers on work that will miss its SLO, so they are shed before
// consuming an admission slot or a reservation. Detect with errors.Is.
var ErrDeadlineInfeasible = errors.New("engine: deadline infeasible, job shed")

// lane identifies the admission lane a job was routed to.
type lane uint8

const (
	laneSmall lane = iota // express lane: fused composite DAGs
	laneBig               // bounded lane: at most bigShare of the pool
)

// jobState tracks a job through admission; guarded by Engine.mu.
type jobState uint8

const (
	jsQueued  jobState = iota // in a lane queue
	jsStarted                 // popped by a worker (running or failing)
	jsDone                    // completed, cancelled or shed
)

// jobRole distinguishes how a Job relates to reservations.
type jobRole uint8

const (
	// roleSolo is a job with its own reservation (the pre-fusion
	// universal case).
	roleSolo jobRole = iota
	// roleMember is a small job executing inside a fused composite: it
	// holds an admission slot but no reservation of its own.
	roleMember
	// roleComposite is the engine-internal job driving a fused forest:
	// it holds the shared reservation but no admission slot.
	roleComposite
)

// noDeadline is the startBy key of jobs without a deadline: they sort
// after every deadline job, among themselves by arrival.
const noDeadline = int64(math.MaxInt64)

// laneQueue is one admission lane: a priority queue ordered by startBy
// (the laxity key: absolute deadline minus estimated service time, i.e.
// the latest moment the job may start and still meet its SLO) with
// arrival order breaking ties and ordering the no-deadline bulk.
// Cancelled jobs are removed lazily at peek time; depth counts only
// live entries. Guarded by Engine.mu.
type laneQueue struct {
	jobs  []*Job
	depth int
}

func (q *laneQueue) Len() int { return len(q.jobs) }
func (q *laneQueue) Less(i, j int) bool {
	a, b := q.jobs[i], q.jobs[j]
	if a.startBy != b.startBy {
		return a.startBy < b.startBy
	}
	return a.seq < b.seq
}
func (q *laneQueue) Swap(i, j int) { q.jobs[i], q.jobs[j] = q.jobs[j], q.jobs[i] }
func (q *laneQueue) Push(x any)    { q.jobs = append(q.jobs, x.(*Job)) }
func (q *laneQueue) Pop() any {
	old := q.jobs
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	q.jobs = old[:n-1]
	return j
}

// push enqueues a live job.
func (q *laneQueue) push(j *Job) {
	heap.Push(q, j)
	q.depth++
}

// peek returns the most urgent live job without removing it, dropping
// lazily-cancelled entries on the way; nil when the lane is empty.
func (q *laneQueue) peek() *Job {
	for len(q.jobs) > 0 {
		if j := q.jobs[0]; j.state == jsQueued {
			return j
		}
		heap.Pop(q)
	}
	return nil
}

// pop removes and returns the most urgent live job, or nil.
func (q *laneQueue) pop() *Job {
	j := q.peek()
	if j == nil {
		return nil
	}
	heap.Pop(q)
	q.depth--
	return j
}

// cancel marks a queued job dead (it stays in the heap until peek
// drops it) and fixes the live count.
func (q *laneQueue) cancel(j *Job) {
	j.state = jsDone
	q.depth--
}

// drain removes and returns every live job (Close).
func (q *laneQueue) drain() []*Job {
	var live []*Job
	for {
		j := q.pop()
		if j == nil {
			return live
		}
		j.state = jsDone
		live = append(live, j)
	}
}

// The admission constants: fixed rather than Options, because no caller
// has a second value for any of them.
const (
	// smallJobFlops is the classification threshold: a job whose
	// estimated flop count is at or below it is ClassSmall when the
	// submission left Class auto (a ~96x96 LU classifies small, a
	// 128x128 LU large).
	smallJobFlops = 1e6
	// fuseLimit caps how many waiting express-lane jobs one worker
	// fuses into a single composite forest.
	fuseLimit = 8
	// bigShare bounds the big lane: while express traffic is waiting,
	// big-lane jobs may hold at most this share of the reservable
	// (non-floater) pool. With an empty express lane the bound is
	// lifted — the pool stays work-conserving for pure-big workloads.
	bigShare = 0.75
)

// classify resolves the job's lane class: an explicit Class request
// wins, otherwise the flop estimate against smallJobFlops decides.
func classify(j *Job) core.JobClass {
	switch j.reqOpt.Class {
	case core.ClassSmall:
		return core.ClassSmall
	case core.ClassLarge:
		return core.ClassLarge
	default:
		if j.work.flops <= smallJobFlops {
			return core.ClassSmall
		}
		return core.ClassLarge
	}
}

// fusable reports whether the job may join a fused composite: jobs
// carrying per-executor hooks (Trace timelines sized for their own run,
// Noise injection) must run on their own executor.
func (j *Job) fusable() bool {
	return j.reqOpt.Trace == nil && j.reqOpt.Noise == nil
}

// ratePrior is the service-rate estimate used before any job of a
// class has completed: 1 flop/ns (one scalar GFLOP/s), deliberately
// conservative so a cold engine sheds obviously-infeasible deadlines
// without shedding plausible ones.
const ratePrior = 1.0

// Service-rate classes. Factorizations are GEMM-bound and run near the
// micro-kernel's flop rate; triangular solves stream the factor once
// per right-hand side and are memory-bound, typically an order of
// magnitude slower per flop. One shared EWMA lets whichever kind
// dominates recent traffic corrupt the other's deadline feasibility
// and laxity ordering, so each class keeps its own estimate.
const (
	rateGemm = iota // FactorWork, CholeskyWork
	rateMem         // SolveWork
	numRateClasses
)

// classFlops splits the job's estimated flops by rate class: a solo
// job's flops all land in its kind's class, a fused composite sums its
// members per class.
func classFlops(j *Job) [numRateClasses]float64 {
	var fl [numRateClasses]float64
	if len(j.members) > 0 {
		for _, m := range j.members {
			fl[m.work.rate] += m.work.flops
		}
		return fl
	}
	fl[j.work.rate] = j.work.flops
	return fl
}

// estServiceLocked estimates the job's service time from the per-class
// observed flop rates (EWMA over completed jobs, Engine.mu held).
// Composites add the classes' predicted times — their members run on
// one shared reservation, so the sum is the right scale even when the
// forest overlaps members internally.
func (e *Engine) estServiceLocked(j *Job) time.Duration {
	fl := classFlops(j)
	var ns float64
	for c, f := range fl {
		if f > 0 {
			ns += f / e.rates[c]
		}
	}
	return time.Duration(ns)
}

// observeRateLocked folds one completed job's achieved flop rates into
// the per-class EWMA estimates (Engine.mu held). A composite's span
// covers work from both classes; it is attributed to them in
// proportion to the current model's predicted shares, so each class's
// estimate is updated with a span consistent with what it was blamed
// for at admission time.
func (e *Engine) observeRateLocked(j *Job, span time.Duration) {
	if span <= 0 {
		return
	}
	fl := classFlops(j)
	var pred [numRateClasses]float64
	var predTotal float64
	for c, f := range fl {
		if f > 0 {
			pred[c] = f / e.rates[c]
			predTotal += pred[c]
		}
	}
	if predTotal <= 0 {
		return
	}
	const alpha = 0.25
	ns := float64(span.Nanoseconds())
	for c, f := range fl {
		if f <= 0 {
			continue
		}
		spanC := ns * pred[c] / predTotal
		if spanC <= 0 {
			continue
		}
		obs := f / spanC
		e.rates[c] = (1-alpha)*e.rates[c] + alpha*obs
	}
}

// ---------------------------------------------------------------------
// Per-class latency digests.

// latWindow is how many recent per-class latencies the engine keeps for
// the p50/p99 digests in Stats.
const latWindow = 512

// latRing is a fixed-size ring of recent latency samples, milliseconds.
// Guarded by Engine.mu.
type latRing struct {
	buf  [latWindow]float64
	next int
	n    int
}

func (r *latRing) add(ms float64) {
	r.buf[r.next] = ms
	r.next = (r.next + 1) % latWindow
	if r.n < latWindow {
		r.n++
	}
}

// percentiles returns the nearest-rank p50 and p99 of the window, or
// zeros when empty.
func (r *latRing) percentiles() (p50, p99 float64) {
	if r.n == 0 {
		return 0, 0
	}
	s := make([]float64, r.n)
	copy(s, r.buf[:r.n])
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(r.n))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return rank(0.50), rank(0.99)
}

// ClassStats is the per-class slice of Stats: completion counts and
// submit-to-done latency percentiles over the last latWindow jobs.
type ClassStats struct {
	// Done and Failed count completed jobs of this class (failures
	// include cancellations; admission-time sheds never become jobs and
	// are counted in Stats.Shed instead).
	Done, Failed int64
	// Queued is the lane's current live depth.
	Queued int
	// P50Ms and P99Ms are submit-to-completion latency percentiles in
	// milliseconds over the recent window.
	P50Ms, P99Ms float64
}
