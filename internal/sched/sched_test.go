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
	return []Policy{NewStatic(), NewDynamic(), NewHybrid(), NewWorkStealing(3)}
}

func TestStaticPinsToOwner(t *testing.T) {
	p := NewStatic()
	p.Reset(&dag.Graph{}, 2)
	// Static pins whatever the Static mark says.
	if w := p.Ready(SeedWorker, mkTask(1, 0, false, 10)); w != 0 {
		t.Fatalf("wake hint %d want owner 0", w)
	}
	if w := p.Ready(SeedWorker, mkTask(2, 1, true, 5)); w != 1 {
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
	if p.SharedBacklog() != 0 {
		t.Fatal("static policy exposed shared work")
	}
}

func TestPriorityThenIDOrder(t *testing.T) {
	for _, p := range []Policy{NewStatic(), NewDynamic()} {
		p.Reset(&dag.Graph{}, 1)
		p.Ready(SeedWorker, mkTask(1, 0, true, 30))
		p.Ready(SeedWorker, mkTask(4, 0, true, 10))
		p.Ready(SeedWorker, mkTask(3, 0, true, 20))
		p.Ready(SeedWorker, mkTask(2, 0, true, 10)) // ties on Prio break by ID
		for _, want := range []int32{2, 4, 3, 1} {
			if got := p.Next(0); got.ID != want {
				t.Fatalf("%s: got %d want %d", p.Name(), got.ID, want)
			}
		}
	}
}

func TestDynamicAnyWorkerLowestPrioFirst(t *testing.T) {
	p := NewDynamic()
	p.Reset(&dag.Graph{}, 4)
	// Dynamic shares whatever the Static mark says.
	if w := p.Ready(SeedWorker, mkTask(1, 3, true, 50)); w != AnyWorker {
		t.Fatalf("wake hint %d want AnyWorker", w)
	}
	p.Ready(SeedWorker, mkTask(2, 2, false, 5))
	if n := p.SharedBacklog(); n != 2 {
		t.Fatalf("shared backlog %d want 2", n)
	}
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
	p.Reset(&dag.Graph{}, 2)
	p.Ready(SeedWorker, mkTask(1, 0, true, 100)) // static: wins despite the worse priority
	p.Ready(SeedWorker, mkTask(2, 0, false, 1))  // dynamic, better priority
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
	p.Reset(&dag.Graph{}, 2)
	p.Ready(SeedWorker, mkTask(1, 1, true, 10))  // static task for worker 1
	p.Ready(SeedWorker, mkTask(2, 1, false, 20)) // dynamic task
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
	p.Reset(&dag.Graph{}, 3)
	p.Ready(SeedWorker, mkTask(1, 1, true, 20))
	p.Ready(SeedWorker, mkTask(2, 2, true, 30))
	p.Ready(SeedWorker, mkTask(3, 2, true, 10))
	p.Ready(SeedWorker, mkTask(4, 0, true, 5))
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
	p.Ready(SeedWorker, mkTask(5, 0, true, 1))
	if got := p.Help(0); got != nil {
		t.Fatalf("Help popped the worker's own queue: %v", got)
	}
	if c := p.Counters(); c != (Counters{DequeueStatic: 1, Steals: 3, Mismatches: 3}) {
		t.Fatalf("counters %+v", c)
	}
}

// TestHelpOnlyUnderHybrid: static stays the pure owner-computes
// baseline, dynamic pins nothing, and work stealing already steals in
// Next — none of them has a tier below Next.
func TestHelpOnlyUnderHybrid(t *testing.T) {
	for _, p := range []Policy{NewStatic(), NewDynamic(), NewWorkStealing(3)} {
		p.Reset(&dag.Graph{}, 2)
		p.Ready(SeedWorker, mkTask(1, 1, true, 1))
		if got := p.Help(0); got != nil {
			t.Fatalf("%s: Help returned %v", p.Name(), got)
		}
		if c := p.Counters(); c != (Counters{}) {
			t.Fatalf("%s: Help moved the counters: %+v", p.Name(), c)
		}
	}
}

func TestWorkStealingOwnDequeLIFO(t *testing.T) {
	p := NewWorkStealing(1)
	p.Reset(&dag.Graph{}, 2)
	p.Ready(SeedWorker, mkTask(1, 0, true, 1))
	p.Ready(SeedWorker, mkTask(2, 0, true, 2))
	if got := p.Next(0); got.ID != 2 {
		t.Fatalf("own deque must be LIFO, got %d", got.ID)
	}
}

func TestWorkStealingStealsFIFO(t *testing.T) {
	p := NewWorkStealing(1)
	p.Reset(&dag.Graph{}, 2)
	p.Ready(SeedWorker, mkTask(1, 1, true, 1))
	p.Ready(SeedWorker, mkTask(2, 1, true, 2))
	got := p.Next(0) // steal from worker 1
	if got == nil || got.ID != 1 {
		t.Fatalf("steal must be FIFO from victim, got %v", got)
	}
	if c := p.Counters(); c != (Counters{Steals: 1, Mismatches: 1}) {
		t.Fatalf("counters %+v", c)
	}
}

func TestWorkStealingReadyGoesToReadyingWorker(t *testing.T) {
	// Cilk enqueue semantics: a task readied by worker 0 sits on worker
	// 0's deque whoever owns its data, and popping it there is a
	// mismatch against its data home.
	p := NewWorkStealing(1)
	p.Reset(&dag.Graph{}, 2)
	p.Ready(0, mkTask(1, 1, true, 1))
	if got := p.Next(0); got == nil || got.ID != 1 {
		t.Fatalf("worker 0 got %v from its own deque", got)
	}
	if c := p.Counters(); c != (Counters{DequeueStatic: 1, Mismatches: 1}) {
		t.Fatalf("counters %+v", c)
	}
}

func TestWorkStealingExhausted(t *testing.T) {
	p := NewWorkStealing(1)
	p.Reset(&dag.Graph{}, 3)
	if got := p.Next(1); got != nil {
		t.Fatalf("empty policy returned %v", got)
	}
}

// TestWorkStealingDeterministicPerWorker: the per-worker RNGs must be
// derived from the seed alone, so two policies with the same seed make
// identical victim choices for the same worker.
func TestWorkStealingDeterministicPerWorker(t *testing.T) {
	seq := func() []int {
		p := NewWorkStealing(42)
		p.Reset(&dag.Graph{}, 4)
		var ids []int
		// Ten tasks on worker 3's deque; workers 0-2 steal in a fixed
		// interleaving. Victim scan order is driven by each worker's own
		// RNG.
		for i := 0; i < 10; i++ {
			p.Ready(SeedWorker, &dag.Task{ID: int32(i), Owner: 3, Prio: int64(i)})
		}
		for i := 0; i < 10; i++ {
			if tk := p.Next(i % 3); tk != nil {
				ids = append(ids, int(tk.ID))
			}
		}
		return ids
	}
	a, b := seq(), seq()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim selection not deterministic at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestAllPoliciesDrainEverything drives every policy the way the
// simulator does — one goroutine, workers polled round-robin — and
// checks every task comes out exactly once.
func TestAllPoliciesDrainEverything(t *testing.T) {
	for _, p := range allPolicies() {
		p.Reset(&dag.Graph{}, 3)
		for i := int32(0); i < 30; i++ {
			p.Ready(SeedWorker, mkTask(i, int(i)%3, i%2 == 0, int64(i)))
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
	p.Reset(g, workers)
	popped := make([]int32, tasks)
	var total atomic.Int64

	half := tasks / 2
	if seedAll {
		half = tasks
	}
	for _, tk := range all[:half] {
		p.Ready(SeedWorker, tk)
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
					p.Ready(w, all[next])
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
// three ways it can leave a queue. The endpoint policies and work
// stealing read the same whether or not Help is driven; under hybrid
// the helps come out of the owner-queue pops, never out of the shared
// ones.
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
		ws := NewWorkStealing(3)
		drainConcurrently(t, ws, 4, 500, true, help)
		if c := ws.Counters(); c.DequeueStatic+c.Steals != 500 {
			t.Fatalf("help=%v: worksteal pops %d + steals %d != 500", help, c.DequeueStatic, c.Steals)
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
	h.Reset(&dag.Graph{}, 4)
	for i := int32(0); i < 40; i++ {
		h.Ready(SeedWorker, mkTask(i, int(i)%4, true, int64(i)))
	}
	for h.Next(3) != nil {
	}
	for h.Help(3) != nil {
	}
	if c := h.Counters(); c != (Counters{DequeueStatic: 10, Steals: 30, Mismatches: 30}) {
		t.Fatalf("lone hybrid worker counters %+v want 10 own pops and 30 helps", c)
	}
}

// TestLendingSlots certifies the contract the resident engine's
// lending relies on: a policy Reset with more slots than the graph's
// owner range (extra "helper" slots borrowed by foreign workers) must
// (a) never pin an owner task to a helper slot — owners lie in
// [0, graph workers), so a departing helper strands no work — and
// (b) expose globally poppable work (shared heap, stealable deques) to
// helper slots.
func TestLendingSlots(t *testing.T) {
	const owners, slots, tasks = 2, 5, 24
	mk := func() []*dag.Task {
		all := make([]*dag.Task, tasks)
		for i := range all {
			all[i] = &dag.Task{ID: int32(i), Owner: i % owners, Static: i%2 == 0, Prio: int64(i)}
		}
		return all
	}

	t.Run("static-pins-only-to-owners", func(t *testing.T) {
		p := NewStatic()
		p.Reset(&dag.Graph{Workers: owners}, slots)
		for _, tk := range mk() {
			if w := p.Ready(SeedWorker, tk); w >= owners {
				t.Fatalf("task %d pinned to helper slot %d", tk.ID, w)
			}
		}
		for h := owners; h < slots; h++ {
			if tk := p.Next(h); tk != nil {
				t.Fatalf("helper slot %d popped owner-pinned task %d", h, tk.ID)
			}
		}
	})

	t.Run("hybrid-helpers-see-dynamic-only", func(t *testing.T) {
		p := NewHybrid()
		p.Reset(&dag.Graph{Workers: owners}, slots)
		dyn := 0
		for _, tk := range mk() {
			if w := p.Ready(SeedWorker, tk); w == AnyWorker {
				dyn++
			} else if w >= owners {
				t.Fatalf("static task %d pinned to helper slot %d", tk.ID, w)
			}
		}
		if n := p.SharedBacklog(); n != dyn {
			t.Fatalf("shared backlog %d want %d", n, dyn)
		}
		got := 0
		for h := owners; h < slots; h++ {
			for p.Next(h) != nil {
				got++
			}
		}
		if got != dyn {
			t.Fatalf("helper slots drained %d of %d dynamic tasks", got, dyn)
		}
	})

	t.Run("worksteal-helpers-push-and-get-stolen", func(t *testing.T) {
		p := NewWorkStealing(7)
		p.Reset(&dag.Graph{Workers: owners}, slots)
		all := mk()
		// A helper readies tasks onto its own deque (Chase-Lev bottoms
		// are single-producer); owners must be able to steal them after
		// the helper leaves.
		for _, tk := range all {
			p.Ready(slots-1, tk)
		}
		got := 0
		for w := 0; w < owners; w++ {
			for p.Next(w) != nil {
				got++
			}
		}
		if got != tasks {
			t.Fatalf("owners stole %d of %d tasks left on a helper deque", got, tasks)
		}
	})
}

func TestPolicyNames(t *testing.T) {
	if NewStatic().Name() != "static" || NewDynamic().Name() != "dynamic" ||
		NewHybrid().Name() != "hybrid" || NewWorkStealing(0).Name() != "worksteal" {
		t.Fatal("policy names must be stable for reports")
	}
}
