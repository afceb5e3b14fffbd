package sched

import (
	"sync"

	"repro/internal/dag"
)

// pinRule selects which ready tasks a QueuePolicy pins to their owner's
// queue; everything else goes to the shared queue.
type pinRule uint8

const (
	// pinMarked pins the tasks the DAG builder marked Static: those of
	// the first Nstatic block columns (Algorithm 1, line 2).
	pinMarked pinRule = iota
	// pinAll pins every task: Nstatic = N whatever the marks say.
	pinAll
	// pinNone pins nothing: Nstatic = 0 whatever the marks say.
	pinNone
)

// ownerSlot is one worker's owner queue plus its instrumentation,
// padded so neighbouring workers' slots do not share a cache line. The
// mutex guards only the heap: any worker may Ready into any owner
// queue, the owning worker pops it (and, under the hybrid rule, a
// worker with nothing else to do — Help), and only the owning worker
// touches the counters.
type ownerSlot struct {
	mu sync.Mutex
	h  taskHeap
	c  Counters
	_  [8]int64
}

func (s *ownerSlot) push(t *dag.Task) {
	s.mu.Lock()
	pushTask(&s.h, t)
	s.mu.Unlock()
}

func (s *ownerSlot) pop() *dag.Task {
	s.mu.Lock()
	t := popTask(&s.h)
	s.mu.Unlock()
	return t
}

// head returns the queue's most critical task without removing it.
func (s *ownerSlot) head() *dag.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.h) == 0 {
		return nil
	}
	return s.h[0]
}

// QueuePolicy is the paper's scheduling rule (Algorithms 1 and 2):
// pinned tasks sit in their owner's queue in look-ahead order, the
// rest in one shared queue in DFS order (left to right, which keeps
// execution near the critical path). A worker always prefers its own
// queue — ensuring progress on the critical path and touching no
// shared lock while it has pinned work — and falls back to the shared
// queue when it would otherwise idle (Algorithm 1, lines 8-10 and
// 23-25). The hybrid rule has one more fallback below the paper's two
// (Help): a worker that found both empty and is about to sleep takes
// the most critical task pinned to another owner, so a persistently
// slow owner's backlog does not idle the rest of the machine.
//
// No two workers contend on a lock unless the rule shares a queue
// between them: each owner queue has its own mutex, and the shared
// heap's mutex guards only the heap operation itself. The shared heap
// remains a serialization point by design — that contention is the
// paper's dequeue-overhead argument.
type QueuePolicy struct {
	name   string
	pin    pinRule
	slots  []ownerSlot
	mu     sync.Mutex
	shared taskHeap
}

// NewStatic returns the fully static owner-computes policy ("CALU
// static"): each worker executes exactly the tasks whose output blocks
// it owns under the 2D block-cyclic distribution. Load imbalance shows
// up as idle time (Figure 1).
func NewStatic() *QueuePolicy { return &QueuePolicy{name: "static", pin: pinAll} }

// NewDynamic returns the fully dynamic policy ("CALU dynamic"): any
// worker may pop any task. Load balance is ideal; locality and dequeue
// overhead pay for it (section 1).
func NewDynamic() *QueuePolicy { return &QueuePolicy{name: "dynamic", pin: pinNone} }

// NewHybrid returns the paper's hybrid static/dynamic policy. The
// static fraction itself is decided by the DAG builder's NstaticCols
// (the dratio knob), not here: the policy simply respects the Static
// marks.
func NewHybrid() *QueuePolicy { return &QueuePolicy{name: "hybrid", pin: pinMarked} }

// Name implements Policy.
func (p *QueuePolicy) Name() string { return p.name }

// Reset implements Policy.
func (p *QueuePolicy) Reset(g *dag.Graph, workers int) {
	p.slots = make([]ownerSlot, workers)
	p.shared = p.shared[:0]
}

// Ready implements Policy. Only the owner can pop a pinned task, so
// the owner is whom the runtime must wake; shared tasks may be popped
// by anyone.
func (p *QueuePolicy) Ready(worker int, t *dag.Task) int {
	if p.pin == pinAll || (p.pin == pinMarked && t.Static) {
		w := t.Owner % len(p.slots)
		p.slots[w].push(t)
		return w
	}
	p.mu.Lock()
	pushTask(&p.shared, t)
	p.mu.Unlock()
	return AnyWorker
}

// Next implements Policy. The two endpoint rules skip the queue they
// never fill, so an idle static worker stays off the shared lock and a
// dynamic pop pays for one lock, not two.
func (p *QueuePolicy) Next(worker int) *dag.Task {
	s := &p.slots[worker]
	if p.pin != pinNone {
		if t := s.pop(); t != nil {
			s.c.DequeueStatic++
			return t
		}
	}
	if p.pin == pinAll {
		return nil
	}
	p.mu.Lock()
	t := popTask(&p.shared)
	p.mu.Unlock()
	if t != nil {
		s.c.DequeueDynamic++
		if t.Owner != worker {
			s.c.Mismatches++
		}
	}
	return t
}

// Help implements Policy, for the hybrid rule only: the worker takes
// the head of the owner queue whose head is most critical. The static
// endpoint stays the paper's pure owner-computes baseline, with Figure
// 1's idle time; the dynamic endpoint pins nothing to help with. A
// queue drained between the scan and the pop yields nil: the caller
// asks again before it parks.
func (p *QueuePolicy) Help(worker int) *dag.Task {
	if p.pin != pinMarked {
		return nil
	}
	victim := -1
	var best *dag.Task
	for v := range p.slots {
		if v == worker {
			continue
		}
		if t := p.slots[v].head(); t != nil && (best == nil || before(t, best)) {
			victim, best = v, t
		}
	}
	if victim < 0 {
		return nil
	}
	t := p.slots[victim].pop()
	if t != nil {
		// Another owner's task is off its data home by definition.
		c := &p.slots[worker].c
		c.Steals++
		c.Mismatches++
	}
	return t
}

// SharedBacklog implements Policy: only the shared heap is globally
// poppable; owner-pinned queues are invisible to lending slots.
func (p *QueuePolicy) SharedBacklog() int {
	p.mu.Lock()
	n := len(p.shared)
	p.mu.Unlock()
	return n
}

// Counters implements Policy.
func (p *QueuePolicy) Counters() Counters {
	var c Counters
	for i := range p.slots {
		c.add(p.slots[i].c)
	}
	return c
}
