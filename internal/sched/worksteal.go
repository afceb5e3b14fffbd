package sched

import (
	"math/rand"

	"repro/internal/dag"
)

// counterSlot is a padded per-worker Counters cell.
type counterSlot struct {
	c Counters
	_ [4]int64
}

// WorkStealing is Cilk-style randomized work stealing, for the section
// 8 comparison: one lock-free Chase-Lev deque per worker, popped LIFO
// by its owner and stolen FIFO by everyone else, with an independent
// deterministic RNG per worker for victim selection. A task made ready
// by worker w goes onto w's own deque (the Chase-Lev bottom is
// single-producer); mismatch accounting is still relative to the
// task's data home. As the paper argues (section 8), neither end of
// the victim's deque tracks the factorization's critical path, which
// is why the paper's DFS-ordered shared queue beats it.
type WorkStealing struct {
	seed   int64
	deques []*clDeque
	rngs   []*rand.Rand
	cnt    []counterSlot
}

// NewWorkStealing returns a lock-free work-stealing policy whose
// per-worker victim-selection RNGs are derived deterministically from
// seed.
func NewWorkStealing(seed int64) *WorkStealing { return &WorkStealing{seed: seed} }

// Name implements Policy.
func (p *WorkStealing) Name() string { return "worksteal" }

// Reset implements Policy.
func (p *WorkStealing) Reset(g *dag.Graph, workers int) {
	p.deques = make([]*clDeque, workers)
	p.rngs = make([]*rand.Rand, workers)
	p.cnt = make([]counterSlot, workers)
	for w := 0; w < workers; w++ {
		p.deques[w] = &clDeque{}
		p.deques[w].init()
		// SplitMix64-style odd-constant mixing keeps per-worker streams
		// distinct and deterministic for a given (seed, worker) pair.
		p.rngs[w] = rand.New(rand.NewSource(p.seed ^ (int64(w)+1)*-0x61c8864680b583eb))
	}
}

// Ready implements Policy. Deques are stealable from every worker, so
// any parked worker may be woken.
func (p *WorkStealing) Ready(worker int, t *dag.Task) int {
	if worker < 0 {
		// Pre-run seeding (no workers running yet): distribute roots to
		// their owners' deques.
		worker = t.Owner % len(p.deques)
	}
	p.deques[worker].push(t)
	return AnyWorker
}

// Next implements Policy.
func (p *WorkStealing) Next(worker int) *dag.Task {
	c := &p.cnt[worker].c
	if t := p.deques[worker].pop(); t != nil {
		c.DequeueStatic++
		// Own-deque pops can still be off their data home (tasks sit on
		// the readying worker's deque, not the owner's), so mismatch
		// accounting stays relative to the owner like everywhere else.
		if t.Owner%len(p.deques) != worker {
			c.Mismatches++
		}
		return t
	}
	n := len(p.deques)
	start := p.rngs[worker].Intn(n)
	for k := 0; k < n; k++ {
		v := (start + k) % n
		if v == worker {
			continue
		}
		if t := p.deques[v].steal(); t != nil {
			c.Steals++
			if t.Owner != worker {
				c.Mismatches++
			}
			return t
		}
	}
	return nil
}

// Help implements Policy: Next already steals, so there is no tier
// below it.
func (p *WorkStealing) Help(worker int) *dag.Task { return nil }

// Counters implements Policy.
func (p *WorkStealing) Counters() Counters {
	var c Counters
	for i := range p.cnt {
		c.add(p.cnt[i].c)
	}
	return c
}
