package sched

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dag"
)

func TestDequeLIFOOwnerFIFOThief(t *testing.T) {
	d := &clDeque{}
	d.init()
	t1 := &dag.Task{ID: 1}
	t2 := &dag.Task{ID: 2}
	t3 := &dag.Task{ID: 3}
	d.push(t1)
	d.push(t2)
	d.push(t3)
	if got := d.steal(); got != t1 {
		t.Fatalf("steal got %v want oldest (1)", got)
	}
	if got := d.pop(); got != t3 {
		t.Fatalf("pop got %v want newest (3)", got)
	}
	if got := d.pop(); got != t2 {
		t.Fatalf("pop got %v want 2", got)
	}
	if got := d.pop(); got != nil {
		t.Fatalf("empty pop got %v", got)
	}
	if got := d.steal(); got != nil {
		t.Fatalf("empty steal got %v", got)
	}
}

func TestDequeGrowsPastInitialCapacity(t *testing.T) {
	d := &clDeque{}
	d.init()
	const n = 1000 // well past the initial 64
	tasks := make([]*dag.Task, n)
	for i := range tasks {
		tasks[i] = &dag.Task{ID: int32(i)}
		d.push(tasks[i])
	}
	for i := n - 1; i >= 0; i-- {
		if got := d.pop(); got != tasks[i] {
			t.Fatalf("pop %d got %v", i, got)
		}
	}
	if got := d.pop(); got != nil {
		t.Fatalf("deque holds more than %d tasks: popped %v", n, got)
	}
}

// TestDequeConcurrentStress: one owner interleaving pushes and pops
// with several thieves stealing; every task must surface exactly once.
func TestDequeConcurrentStress(t *testing.T) {
	const (
		nTasks   = 20000
		nThieves = 3
	)
	d := &clDeque{}
	d.init()
	tasks := make([]*dag.Task, nTasks)
	for i := range tasks {
		tasks[i] = &dag.Task{ID: int32(i)}
	}
	seen := make([]int32, nTasks)
	var got atomic.Int64

	record := func(tk *dag.Task) {
		if tk != nil {
			atomic.AddInt32(&seen[tk.ID], 1)
			got.Add(1)
		}
	}

	var wg sync.WaitGroup
	for th := 0; th < nThieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < nTasks {
				record(d.steal())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nTasks; i++ {
			d.push(tasks[i])
			if i%3 == 0 {
				record(d.pop())
			}
		}
		for got.Load() < nTasks {
			record(d.pop())
		}
	}()
	wg.Wait()

	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d surfaced %d times", id, n)
		}
	}
}
