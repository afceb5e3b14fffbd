package sched

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dag"
)

// mkTask builds a standalone task for queue tests.
func mkTask(id int32, owner int, static bool, prio int64) *dag.Task {
	return &dag.Task{ID: id, Owner: owner, Static: static, Prio: prio}
}

func allPolicies() []Policy {
	return []Policy{NewStatic(), NewDynamic(), NewHybrid()}
}

func TestStaticPinsToOwner(t *testing.T) {
	p := NewStatic()
	p.Reset(2)
	// Static pins whatever the Static mark says.
	if w := p.Ready(mkTask(1, 0, false, 10)); w != 0 {
		t.Fatalf("wake hint %d want owner 0", w)
	}
	if w := p.Ready(mkTask(2, 1, true, 5)); w != 1 {
		t.Fatalf("wake hint %d want owner 1", w)
	}
	if got := p.Next(0); got == nil || got.ID != 1 {
		t.Fatalf("worker 0 got %v", got)
	}
	if got := p.Next(0); got != nil {
		t.Fatalf("worker 0 must not see worker 1's task, got %v", got)
	}
	if got := p.Next(1); got == nil || got.ID != 2 {
		t.Fatalf("worker 1 got %v", got)
	}
	if c := p.Counters(); c != (Counters{DequeueStatic: 2}) {
		t.Fatalf("counters %+v", c)
	}
}

func TestPriorityThenIDOrder(t *testing.T) {
	for _, p := range []Policy{NewStatic(), NewDynamic()} {
		p.Reset(1)
		p.Ready(mkTask(1, 0, true, 30))
		p.Ready(mkTask(4, 0, true, 10))
		p.Ready(mkTask(3, 0, true, 20))
		p.Ready(mkTask(2, 0, true, 10)) // ties on Prio break by ID
		for _, want := range []int32{2, 4, 3, 1} {
			if got := p.Next(0); got.ID != want {
				t.Fatalf("%s: got %d want %d", p.Name(), got.ID, want)
			}
		}
	}
}

func TestDynamicAnyWorkerLowestPrioFirst(t *testing.T) {
	p := NewDynamic()
	p.Reset(4)
	// Dynamic shares whatever the Static mark says.
	if w := p.Ready(mkTask(1, 3, true, 50)); w != AnyWorker {
		t.Fatalf("wake hint %d want AnyWorker", w)
	}
	p.Ready(mkTask(2, 2, false, 5))
	if got := p.Next(0); got.ID != 2 {
		t.Fatalf("got %d want 2 (DFS order)", got.ID)
	}
	if got := p.Next(3); got.ID != 1 {
		t.Fatalf("got %d want 1", got.ID)
	}
	// Task 2 (owner 2) ran on worker 0: a mismatch. Task 1 (owner 3) ran
	// at home.
	if c := p.Counters(); c != (Counters{DequeueDynamic: 2, Mismatches: 1}) {
		t.Fatalf("counters %+v", c)
	}
}

func TestHybridPrefersOwnStaticQueue(t *testing.T) {
	p := NewHybrid()
	p.Reset(2)
	p.Ready(mkTask(1, 0, true, 100)) // static: wins despite the worse priority
	p.Ready(mkTask(2, 0, false, 1))  // dynamic, better priority
	if got := p.Next(0); got == nil || got.ID != 1 {
		t.Fatalf("hybrid must drain own static queue first, got %v", got)
	}
	if got := p.Next(0); got == nil || got.ID != 2 {
		t.Fatalf("then fall back to dynamic, got %v", got)
	}
}

func TestHybridIdleWorkerTakesDynamic(t *testing.T) {
	// Algorithm 1 lines 8-10: a worker with no ready static tasks picks
	// up dynamic work instead of idling.
	p := NewHybrid()
	p.Reset(2)
	p.Ready(mkTask(1, 1, true, 10))  // static task for worker 1
	p.Ready(mkTask(2, 1, false, 20)) // dynamic task
	if got := p.Next(0); got == nil || got.ID != 2 {
		t.Fatalf("worker 0 should pull dynamic task, got %v", got)
	}
	if c := p.Counters(); c != (Counters{DequeueDynamic: 1, Mismatches: 1}) {
		t.Fatalf("counters %+v", c)
	}
}

// TestHybridHelpTakesMostCritical pins the third tier: a hybrid worker
// with nothing of its own takes the most critical head among the other
// owners' queues, never its own queue, and each help is counted as a
// steal and a migration.
func TestHybridHelpTakesMostCritical(t *testing.T) {
	p := NewHybrid()
	p.Reset(3)
	p.Ready(mkTask(1, 1, true, 20))
	p.Ready(mkTask(2, 2, true, 30))
	p.Ready(mkTask(3, 2, true, 10))
	p.Ready(mkTask(4, 0, true, 5))
	if got := p.Next(0); got == nil || got.ID != 4 {
		t.Fatalf("own queue first, got %v", got)
	}
	if got := p.Next(0); got != nil {
		t.Fatalf("Next must not reach into another owner's queue, got %v", got)
	}
	for _, want := range []int32{3, 1, 2} {
		if got := p.Help(0); got == nil || got.ID != want {
			t.Fatalf("Help got %v want task %d", got, want)
		}
	}
	if got := p.Help(0); got != nil {
		t.Fatalf("Help on drained queues returned %v", got)
	}
	p.Ready(mkTask(5, 0, true, 1))
	if got := p.Help(0); got != nil {
		t.Fatalf("Help popped the worker's own queue: %v", got)
	}
	if c := p.Counters(); c != (Counters{DequeueStatic: 1, Steals: 3, Mismatches: 3}) {
		t.Fatalf("counters %+v", c)
	}
}

// TestHelpOnlyUnderHybrid: static stays the pure owner-computes
// baseline and dynamic pins nothing — neither has a tier below Next.
func TestHelpOnlyUnderHybrid(t *testing.T) {
	for _, p := range []Policy{NewStatic(), NewDynamic()} {
		p.Reset(2)
		p.Ready(mkTask(1, 1, true, 1))
		if got := p.Help(0); got != nil {
			t.Fatalf("%s: Help returned %v", p.Name(), got)
		}
		if c := p.Counters(); c != (Counters{}) {
			t.Fatalf("%s: Help moved the counters: %+v", p.Name(), c)
		}
	}
}

// TestAllPoliciesDrainEverything drives every policy the way the
// simulator does — one goroutine, workers polled round-robin — and
// checks every task comes out exactly once.
func TestAllPoliciesDrainEverything(t *testing.T) {
	for _, p := range allPolicies() {
		p.Reset(3)
		for i := int32(0); i < 30; i++ {
			p.Ready(mkTask(i, int(i)%3, i%2 == 0, int64(i)))
		}
		seen := make(map[int32]int)
		for w, misses := 0, 0; misses < 3; w = (w + 1) % 3 {
			if tk := p.Next(w); tk != nil {
				seen[tk.ID]++
				misses = 0
			} else {
				misses++
			}
		}
		for i := int32(0); i < 30; i++ {
			if seen[i] != 1 {
				t.Errorf("%s: task %d popped %d times", p.Name(), i, seen[i])
			}
		}
	}
}

// drainConcurrently hammers a policy from `workers` goroutines until
// every task has been popped, and returns a per-task pop count (each
// must be exactly 1). With help, a worker whose Next came up empty asks
// Help before trying again, the way the runtime does before it parks.
func drainConcurrently(t *testing.T, p Policy, workers, tasks int, seedAll, help bool) []int32 {
	t.Helper()
	g := &dag.Graph{Name: "drain"}
	all := make([]*dag.Task, tasks)
	for i := range all {
		all[i] = &dag.Task{ID: int32(i), Owner: i % workers, Static: i%2 == 0, Prio: int64(i)}
		g.Tasks = append(g.Tasks, all[i])
	}
	p.Reset(workers)
	popped := make([]int32, tasks)
	var total atomic.Int64

	half := tasks / 2
	if seedAll {
		half = tasks
	}
	for _, tk := range all[:half] {
		p.Ready(tk)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker enqueues a share of the second half mid-drain,
			// exercising concurrent Ready against concurrent Next.
			lo := half + w*(tasks-half)/workers
			hi := half + (w+1)*(tasks-half)/workers
			next := lo
			for total.Load() < int64(tasks) {
				if next < hi {
					p.Ready(all[next])
					next++
				}
				tk := p.Next(w)
				if tk == nil && help {
					tk = p.Help(w)
				}
				if tk != nil {
					atomic.AddInt32(&popped[tk.ID], 1)
					total.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return popped
}

func TestPoliciesDrainExactlyOnceConcurrently(t *testing.T) {
	for _, seedAll := range []bool{true, false} {
		for _, help := range []bool{false, true} {
			for _, p := range allPolicies() {
				popped := drainConcurrently(t, p, 4, 2000, seedAll, help)
				for id, n := range popped {
					if n != 1 {
						t.Fatalf("%s seedAll=%v help=%v: task %d popped %d times", p.Name(), seedAll, help, id, n)
					}
				}
			}
		}
	}
}

// TestCountersMatchWork: every task is counted by exactly one of the
// three ways it can leave a queue. The endpoint policies read the same
// whether or not Help is driven; under hybrid the helps come out of the
// owner-queue pops, never out of the shared ones.
func TestCountersMatchWork(t *testing.T) {
	for _, help := range []bool{false, true} {
		p := NewDynamic()
		drainConcurrently(t, p, 4, 500, true, help)
		if c := p.Counters(); c.DequeueDynamic != 500 || c.DequeueStatic != 0 || c.Steals != 0 {
			t.Fatalf("help=%v: dynamic counters %+v want 500 shared pops", help, c)
		}
		st := NewStatic()
		drainConcurrently(t, st, 4, 500, true, help)
		if c := st.Counters(); c != (Counters{DequeueStatic: 500}) {
			t.Fatalf("help=%v: static counters %+v want 500 owner pops", help, c)
		}
	}
	h := NewHybrid()
	drainConcurrently(t, h, 4, 500, false, false)
	if c := h.Counters(); c.DequeueStatic != 250 || c.DequeueDynamic != 250 || c.Steals != 0 {
		t.Fatalf("hybrid counters %+v want 250 owner + 250 shared pops", c)
	}
	h = NewHybrid()
	drainConcurrently(t, h, 4, 500, false, true)
	c := h.Counters()
	if c.DequeueStatic+c.DequeueDynamic+c.Steals != 500 || c.DequeueDynamic != 250 || c.Mismatches < c.Steals {
		t.Fatalf("hybrid+help counters %+v want owner + shared + helped pops = 500, 250 of them shared", c)
	}
	// One worker drains alone: the other owners' queues can only leave
	// through Help.
	h.Reset(4)
	for i := int32(0); i < 40; i++ {
		h.Ready(mkTask(i, int(i)%4, true, int64(i)))
	}
	for h.Next(3) != nil {
	}
	for h.Help(3) != nil {
	}
	if c := h.Counters(); c != (Counters{DequeueStatic: 10, Steals: 30, Mismatches: 30}) {
		t.Fatalf("lone hybrid worker counters %+v want 10 own pops and 30 helps", c)
	}
}

func TestPolicyNames(t *testing.T) {
	if NewStatic().Name() != "static" || NewDynamic().Name() != "dynamic" ||
		NewHybrid().Name() != "hybrid" {
		t.Fatal("policy names must be stable for reports")
	}
}
