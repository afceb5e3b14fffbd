package engine

// Admission: two first-in first-out lanes, the express lane served
// first.
//
// Under a realistic mix — many tiny factors and solves plus a few huge
// factorizations — arrival-order admission has two pathologies the
// paper's non-uniform-load analysis (Beaumont & Marchal) predicts: tiny
// jobs each pay a whole-worker static reservation, and one huge job at
// the queue head blocks everyone behind it. Admission therefore routes
// by job *class*, not arrival order:
//
//   - small jobs enter an express lane and each runs on its own
//     executor with a one-worker default share, so a burst of them
//     runs side by side instead of each reserving a wide share;
//   - big jobs enter a second lane whose head starts only when the
//     express lane is empty, so a queued wide factorization never
//     takes a free worker from waiting express traffic.
//
// Within a lane jobs start in arrival order. A job's submission context
// is its only stop signal: a deadline is the context's deadline, and a
// job still queued when its context ends is withdrawn (cancelQueued).

import (
	"math"
	"sort"
)

// jobState tracks a job through admission; guarded by Engine.mu.
type jobState uint8

const (
	jsQueued  jobState = iota // in a lane
	jsStarted                 // popped by a worker (running or failing)
	jsDone                    // completed or withdrawn
)

// Class is a job's admission class, decided by its flop estimate alone
// (classOf). It indexes Engine.lanes.
type Class uint8

const (
	ClassSmall Class = iota // rides the express lane
	ClassLarge              // waits in the big lane
)

// String names the class as the shard replies spell it.
func (c Class) String() string { return [...]string{"small", "large"}[c] }

// smallJobFlops is the classification threshold: a job whose estimated
// flop count is at or below it is ClassSmall (a 96x96 LU classifies
// small, a 128x128 LU large). It is a constant rather than an option
// because no caller has a second value.
const smallJobFlops = 1e6

// classOf is the class of a job with the given flop estimate.
func classOf(flops float64) Class {
	if flops <= smallJobFlops {
		return ClassSmall
	}
	return ClassLarge
}

// lane is one class's admission queue and completion record, guarded by
// Engine.mu. The queue is first in first out; a withdrawn job stays in
// jobs until it reaches the head, and depth counts only live entries.
type lane struct {
	jobs         []*Job
	depth        int
	lat          latRing
	done, failed int64
}

// push enqueues a live job.
func (q *lane) push(j *Job) {
	q.jobs = append(q.jobs, j)
	q.depth++
}

// peek returns the oldest live job without removing it, dropping
// withdrawn entries on the way; nil when the lane is empty.
func (q *lane) peek() *Job {
	for len(q.jobs) > 0 {
		if j := q.jobs[0]; j.state == jsQueued {
			return j
		}
		q.jobs[0] = nil
		q.jobs = q.jobs[1:]
	}
	return nil
}

// pop removes and returns the oldest live job, or nil.
func (q *lane) pop() *Job {
	j := q.peek()
	if j != nil {
		q.jobs[0] = nil
		q.jobs = q.jobs[1:]
		q.depth--
	}
	return j
}

// drain removes and returns every live job (Close).
func (q *lane) drain() []*Job {
	var live []*Job
	for j := q.pop(); j != nil; j = q.pop() {
		j.state = jsDone
		live = append(live, j)
	}
	return live
}

// stats is the lane's slice of Stats.
func (q *lane) stats() ClassStats {
	s := ClassStats{Done: q.done, Failed: q.failed, Queued: q.depth}
	s.P50Ms, s.P99Ms = q.lat.percentiles()
	return s
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
	// include withdrawn jobs; submissions refused at admission never
	// become jobs).
	Done, Failed int64
	// Queued is the lane's current live depth.
	Queued int
	// P50Ms and P99Ms are submit-to-completion latency percentiles in
	// milliseconds over the recent window.
	P50Ms, P99Ms float64
}
