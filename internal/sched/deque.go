package sched

import (
	"sync/atomic"

	"repro/internal/dag"
)

// clDeque is a lock-free Chase-Lev work-stealing deque (Chase & Lev,
// SPAA'05; the CAS-validated variant of Lê et al., PPoPP'13). The owner
// pushes and pops at the bottom without synchronization beyond atomic
// loads/stores; thieves CAS the top. Go's sync/atomic operations are
// sequentially consistent, which subsumes the fences of the weak-memory
// formulation.
//
// The buffer only grows (doubling), and grow copies the live window
// [top, bottom) into the new array, so a thief holding a stale buffer
// pointer still reads the correct element for any index its later
// top-CAS can validate: slots in the live window are never overwritten
// in place, and a pop that empties the deque races through the same
// top-CAS the thief uses.
type clDeque struct {
	bottom atomic.Int64
	_      [7]int64 // keep owner-written bottom off the thieves' top line
	top    atomic.Int64
	_      [7]int64
	buf    atomic.Pointer[clBuf]
}

type clBuf struct {
	mask  int64 // len(a) - 1; len is a power of two
	tasks []atomic.Pointer[dag.Task]
}

func newCLBuf(n int64) *clBuf {
	return &clBuf{mask: n - 1, tasks: make([]atomic.Pointer[dag.Task], n)}
}

func (d *clDeque) init() {
	d.bottom.Store(0)
	d.top.Store(0)
	d.buf.Store(newCLBuf(64))
}

// push appends t at the bottom. Owner only.
func (d *clDeque) push(t *dag.Task) {
	b := d.bottom.Load()
	top := d.top.Load()
	buf := d.buf.Load()
	if b-top >= int64(len(buf.tasks)) {
		// Full: double, copying the live window.
		nb := newCLBuf(int64(len(buf.tasks)) * 2)
		for i := top; i < b; i++ {
			nb.tasks[i&nb.mask].Store(buf.tasks[i&buf.mask].Load())
		}
		d.buf.Store(nb)
		buf = nb
	}
	buf.tasks[b&buf.mask].Store(t)
	d.bottom.Store(b + 1)
}

// pop removes and returns the bottom (most recently pushed) task, or
// nil if the deque is empty. Owner only.
func (d *clDeque) pop() *dag.Task {
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	d.bottom.Store(b)
	top := d.top.Load()
	if top > b {
		// Empty: restore the canonical empty state.
		d.bottom.Store(top)
		return nil
	}
	t := buf.tasks[b&buf.mask].Load()
	if top == b {
		// Last element: race thieves for it through the top CAS.
		if !d.top.CompareAndSwap(top, top+1) {
			t = nil // a thief got it
		}
		d.bottom.Store(top + 1)
	}
	return t
}

// steal removes and returns the top (oldest) task, or nil if the deque
// looked empty or the CAS lost a race (callers just move on to another
// victim; the runtime's spin/park loop retries). Any goroutine.
func (d *clDeque) steal() *dag.Task {
	top := d.top.Load()
	b := d.bottom.Load()
	if top >= b {
		return nil
	}
	buf := d.buf.Load()
	t := buf.tasks[top&buf.mask].Load()
	if !d.top.CompareAndSwap(top, top+1) {
		return nil
	}
	return t
}
