// Package sched implements the scheduling policies of the paper's
// design space (Table 1, Algorithm 1). That design space is one rule —
// the tasks of the first Nstatic block columns are pinned to their
// owner's queue, the rest go to one shared queue in DFS order — with
// fully static owner-computes scheduling (Nstatic = N) and fully
// dynamic shared-queue scheduling (Nstatic = 0) as its two endpoints
// and the paper's hybrid strategy in between. QueuePolicy (queues.go)
// says that rule once, parametrised only by which tasks it pins.
//
// The runtime and the simulator see it through one interface, Policy.
// QueuePolicy is safe for concurrent workers: owner queues are
// per-worker with their own locks, the shared heap has its own mutex,
// and instrumentation is kept in per-worker padded slots. The real
// goroutine runtime (internal/rt) calls it at full hardware
// concurrency; the discrete-event simulator (internal/sim) calls the
// same objects from its single-threaded event loop, where uncontended
// locks decide nothing, so its scheduling decisions are deterministic
// and byte-for-byte reproducible — the property the paper's figures
// depend on.
package sched

import (
	"container/heap"

	"repro/internal/dag"
)

// Counters aggregates scheduler-level instrumentation. DequeueStatic
// and DequeueDynamic count pops from owner queues and from the shared
// queue (the paper's dequeue-overhead source); Mismatches counts tasks
// executed by a worker other than their data home (the locality-loss
// source); Steals counts tasks a worker took from another owner's
// queue through Help, the hybrid rule's tier below Next.
type Counters struct {
	DequeueStatic  int64
	DequeueDynamic int64
	Steals         int64
	Mismatches     int64
}

func (c *Counters) add(o Counters) {
	c.DequeueStatic += o.DequeueStatic
	c.DequeueDynamic += o.DequeueDynamic
	c.Steals += o.Steals
	c.Mismatches += o.Mismatches
}

// SeedWorker is the worker argument for Policy.Ready calls made before
// the workers start (initial root seeding), when no worker identity
// exists yet.
const SeedWorker = -1

// AnyWorker is the wake hint Policy.Ready returns for a task every
// worker can pop (the shared queue): waking any one parked worker
// suffices. A task pinned to one worker's queue returns that worker's
// index instead and must wake exactly that worker — waking an
// arbitrary parked worker would let the signal be absorbed by someone
// who cannot pop the task, deadlocking the run once everyone parks.
const AnyWorker = -1

// Policy dispenses ready tasks to workers. Ready, Next and Help may be
// called from any worker goroutine concurrently; Reset and Counters
// must not overlap with them (the runtime calls Reset before starting
// workers and Counters after they have all exited).
type Policy interface {
	// Name identifies the policy in reports ("static", "dynamic", ...).
	Name() string
	// Reset prepares the policy for a fresh execution of g on `workers`
	// workers, discarding all queued state.
	Reset(g *dag.Graph, workers int)
	// Ready enqueues a task whose dependencies are all satisfied.
	// worker is the enqueuing worker, or SeedWorker when called before
	// the workers start. The return value tells the runtime whom to
	// wake: a worker index when the task is pinned to that worker's
	// queue, else AnyWorker.
	Ready(worker int, t *dag.Task) int
	// Next pops the best ready task for the given worker, or nil if the
	// policy has nothing this worker may run right now.
	Next(worker int) *dag.Task
	// Help is the fallback below Next, for a worker that would
	// otherwise sleep: it takes a ready task pinned to another worker's
	// queue, or returns nil where the policy has no such tier or
	// nothing is queued. Callers try it only after Next has come up
	// empty and they are about to park — on a balanced run it must
	// cost nothing.
	Help(worker int) *dag.Task
	// Counters returns the instrumentation accumulated since Reset.
	Counters() Counters
}

// before is the dispatch order: Task.Prio ascending, which encodes
// left-to-right column order with panel tasks first — the static
// section's look-ahead order and Algorithm 2's DFS order — with ties
// broken by ID.
func before(a, b *dag.Task) bool {
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.ID < b.ID
}

// taskHeap is a priority queue in dispatch order.
type taskHeap []*dag.Task

func (h taskHeap) Len() int            { return len(h) }
func (h taskHeap) Less(i, j int) bool  { return before(h[i], h[j]) }
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(*dag.Task)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

func pushTask(h *taskHeap, t *dag.Task) { heap.Push(h, t) }
func popTask(h *taskHeap) *dag.Task {
	if h.Len() == 0 {
		return nil
	}
	return heap.Pop(h).(*dag.Task)
}
