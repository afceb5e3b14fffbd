package rt

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/sched"
)

// layeredGraph builds depth layers of width tasks; each task depends on
// the same-index task of the previous layer and (when fan is true) on
// its left neighbour too, producing cross-worker dependency edges.
// Every task checks that all its dependencies completed first.
func layeredGraph(width, depth int, fan bool, bad *atomic.Bool) (*dag.Graph, []*atomic.Bool) {
	g := &dag.Graph{Name: "layered"}
	done := make([]*atomic.Bool, width*depth)
	id := func(d, w int) int32 { return int32(d*width + w) }
	for d := 0; d < depth; d++ {
		for w := 0; w < width; w++ {
			i := id(d, w)
			done[i] = &atomic.Bool{}
			t := &dag.Task{ID: i, Kind: dag.S, Owner: w, Static: w%2 == 0, Prio: int64(i)}
			var deps []int32
			if d > 0 {
				deps = append(deps, id(d-1, w))
				if fan && w > 0 {
					deps = append(deps, id(d-1, w-1))
				}
			}
			myDone := done[i]
			depsC := deps
			t.Run = func() {
				for _, dep := range depsC {
					if !done[dep].Load() {
						bad.Store(true)
					}
				}
				myDone.Store(true)
			}
			g.Tasks = append(g.Tasks, t)
		}
	}
	// Wire edges (NumDeps/Outs) to match the closures.
	for d := 1; d < depth; d++ {
		for w := 0; w < width; w++ {
			t := g.Tasks[id(d, w)]
			up := g.Tasks[id(d-1, w)]
			up.Outs = append(up.Outs, t.ID)
			t.NumDeps++
			if fan && w > 0 {
				left := g.Tasks[id(d-1, w-1)]
				left.Outs = append(left.Outs, t.ID)
				t.NumDeps++
			}
		}
	}
	return g, done
}

// TestRunManyTinyTasksAllPolicies is the concurrent-runtime stress
// test: thousands of no-op-weight tasks per policy across worker
// counts, asserting every task ran exactly once and never before its
// dependencies. Run it under -race to exercise the concurrent dispatch
// paths.
func TestRunManyTinyTasksAllPolicies(t *testing.T) {
	width, depth := 64, 30
	if testing.Short() {
		depth = 8
	}
	policies := []func() sched.Policy{
		func() sched.Policy { return sched.NewStatic() },
		func() sched.Policy { return sched.NewDynamic() },
		func() sched.Policy { return sched.NewHybrid() },
	}
	for _, mk := range policies {
		for _, workers := range []int{1, 2, 4, 8} {
			var bad atomic.Bool
			g, done := layeredGraph(width, depth, true, &bad)
			pol := mk()
			if _, err := Run(g, pol, Options{Workers: workers}); err != nil {
				t.Fatalf("%s workers=%d: %v", pol.Name(), workers, err)
			}
			if bad.Load() {
				t.Fatalf("%s workers=%d: dependency order violated", pol.Name(), workers)
			}
			for i, f := range done {
				if !f.Load() {
					t.Fatalf("%s workers=%d: task %d never ran", pol.Name(), workers, i)
				}
			}
		}
	}
}

// TestRunChainAcrossOwnersPinned is the targeted-wake regression test:
// a pure chain whose consecutive tasks belong to different owners under
// a pinned-queue policy. At any instant exactly one task is ready and
// only one specific worker may pop it, so all other workers park; every
// completion must therefore wake precisely the successor's owner — a
// wake delivered to any other parked worker (the classic
// wrong-worker-signal bug) deadlocks the run here almost immediately.
func TestRunChainAcrossOwnersPinned(t *testing.T) {
	const workers, length = 8, 800
	for _, mk := range []func() sched.Policy{
		func() sched.Policy { return sched.NewStatic() },
		func() sched.Policy { return sched.NewHybrid() },
	} {
		g := &dag.Graph{Name: "owner-chain"}
		var ran atomic.Int32
		for i := 0; i < length; i++ {
			tk := &dag.Task{
				ID: int32(i), Kind: dag.S, Owner: i % workers, Static: true, Prio: int64(i),
				Run: func() { ran.Add(1) },
			}
			if i > 0 {
				g.Tasks[i-1].Outs = append(g.Tasks[i-1].Outs, tk.ID)
				tk.NumDeps = 1
			}
			g.Tasks = append(g.Tasks, tk)
		}
		pol := mk()
		if _, err := Run(g, pol, Options{Workers: workers}); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if n := ran.Load(); n != length {
			t.Fatalf("%s: ran %d/%d chain tasks", pol.Name(), n, length)
		}
		ran.Store(0)
	}
}

// TestRunDetectsStuckGraphMidRun: a graph that makes progress and THEN
// wedges (a successor claims a dependency nobody provides) must be
// diagnosed by the atomic outstanding-counter check, not hang.
func TestRunDetectsStuckGraphMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := &dag.Graph{Name: "midstuck"}
		t0 := &dag.Task{ID: 0, Kind: dag.S, Run: func() {}}
		t1 := &dag.Task{ID: 1, Kind: dag.S, NumDeps: 2, Run: func() {}} // one dep never satisfied
		t0.Outs = append(t0.Outs, t1.ID)
		g.Tasks = append(g.Tasks, t0, t1)
		_, err := Run(g, sched.NewDynamic(), Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected stuck-graph error", workers)
		}
		if !strings.Contains(err.Error(), "stuck with 1/2") {
			t.Fatalf("workers=%d: wrong diagnosis: %v", workers, err)
		}
	}
}

// TestRunExecutesEachTaskOnce counts executions directly on a wide
// fan-out/fan-in graph across all policies.
func TestRunExecutesEachTaskOnce(t *testing.T) {
	policies := []sched.Policy{
		sched.NewStatic(), sched.NewDynamic(), sched.NewHybrid(),
	}
	for _, pol := range policies {
		const width = 500
		g := &dag.Graph{Name: "faninout"}
		counts := make([]atomic.Int32, width+2)
		src := &dag.Task{ID: 0, Kind: dag.Final, Run: func() { counts[0].Add(1) }}
		g.Tasks = append(g.Tasks, src)
		sink := &dag.Task{ID: width + 1, Kind: dag.Final, Run: func() { counts[width+1].Add(1) }}
		for i := 1; i <= width; i++ {
			ic := i
			tk := &dag.Task{ID: int32(i), Kind: dag.S, Owner: i % 8, NumDeps: 1, Prio: int64(i),
				Run: func() { counts[ic].Add(1) }}
			src.Outs = append(src.Outs, tk.ID)
			tk.Outs = append(tk.Outs, sink.ID)
			sink.NumDeps++
			g.Tasks = append(g.Tasks, tk)
		}
		g.Tasks = append(g.Tasks, sink)
		if _, err := Run(g, pol, Options{Workers: 8}); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Fatalf("%s: task %d ran %d times", pol.Name(), i, n)
			}
		}
	}
}

// pinnedChains builds `chains` independent chains of `depth` tasks per
// owner, every task pinned (Static) to its chain's owner, and returns
// the graph with a per-task execution counter. A chain's successor is
// published by whoever ran its predecessor, so a delayed owner's queue
// always holds the heads of its other chains: a standing backlog.
func pinnedChains(owners, chains, depth int) (*dag.Graph, []atomic.Int32) {
	g := &dag.Graph{Name: "pinned-chains", Workers: owners}
	ran := make([]atomic.Int32, owners*chains*depth)
	for c := 0; c < owners*chains; c++ {
		for d := 0; d < depth; d++ {
			id := int32(c*depth + d)
			tk := &dag.Task{ID: id, Kind: dag.S, Owner: c % owners, Static: true, Prio: int64(d*owners*chains + c)}
			tk.Run = func() { ran[id].Add(1) }
			if d > 0 {
				g.Tasks[id-1].Outs = append(g.Tasks[id-1].Outs, id)
				tk.NumDeps = 1
			}
			g.Tasks = append(g.Tasks, tk)
		}
	}
	return g, ran
}

// noisyOwner is an Options.Noise that delays worker 0 by d after every
// task and counts the tasks each slot ran.
func noisyOwner(d time.Duration, onSlot []atomic.Int32) func(int) time.Duration {
	return func(w int) time.Duration {
		onSlot[w].Add(1)
		if w == 0 {
			return d
		}
		return 0
	}
}

// TestHelpStressNoisyOwner is the help tier's stress test: an all-pinned
// graph under the hybrid policy with worker 0 delayed after every task.
// Every run must complete with each task executed exactly once and
// counters that add up. That sleepers took over part of worker 0's
// backlog is required of the 200 runs together, not of each: these
// runs last a few milliseconds, and whether a sleeper gets a processor
// within one is up to the OS — and impossible under GOMAXPROCS=1, where
// the delayed worker holds the only one, so there only liveness is
// checked. Run it under -race.
func TestHelpStressNoisyOwner(t *testing.T) {
	const chains, depth, delay = 3, 4, 200 * time.Microsecond
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("procs=%d/workers=%d", procs, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var steals int64
				for it := 0; it < iters; it++ {
					g, ran := pinnedChains(workers, chains, depth)
					onSlot := make([]atomic.Int32, workers)
					// Execute: these graphs call no kernel, so a workspace
					// reservation per iteration would only churn buffers.
					res, err := Execute(g, sched.NewHybrid(), Options{
						Workers: workers, Noise: noisyOwner(delay, onSlot),
					})
					if err != nil {
						t.Fatalf("iteration %d: %v", it, err)
					}
					for id := range ran {
						if n := ran[id].Load(); n != 1 {
							t.Fatalf("iteration %d: task %d ran %d times", it, id, n)
						}
					}
					c := res.Counters
					if c.DequeueStatic+c.Steals != int64(len(ran)) || c.DequeueDynamic != 0 || c.Mismatches != c.Steals {
						t.Fatalf("iteration %d: counters %+v do not add up to %d pinned tasks", it, c, len(ran))
					}
					steals += c.Steals
				}
				if procs > 1 && steals == 0 {
					t.Errorf("no task was helped in %d runs", iters)
				}
			})
		}
	}
}

// TestHelpShortensNoisyRun is the point of the tier, on a run long
// enough (worker 0's share alone is 20 ms of injected delay) for a
// sleeper to get a processor whatever the OS does in between: the other
// workers finish their own chains, take over worker 0's backlog — which
// costs them no delay — and the run ends before worker 0 could have
// worked off its share alone. The time bound is asserted with a
// processor per worker only: with fewer, a worker that is not running
// is a lagging owner like any other and the helpers also serve each
// other.
func TestHelpShortensNoisyRun(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skip("helping needs a processor the delayed worker is not holding")
	}
	const chains, depth, delay = 4, 5, time.Millisecond
	share := chains * depth * delay
	for _, workers := range []int{2, 4, 8} {
		g, ran := pinnedChains(workers, chains, depth)
		onSlot := make([]atomic.Int32, workers)
		res, err := Run(g, sched.NewHybrid(), Options{Workers: workers, Noise: noisyOwner(delay, onSlot)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for id := range ran {
			if n := ran[id].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, id, n)
			}
		}
		if res.Counters.Steals == 0 || (workers <= procs && res.Makespan >= share) {
			t.Errorf("workers=%d: %d helps, makespan %v against %v for worker 0's share alone (it ran %d of %d)",
				workers, res.Counters.Steals, res.Makespan, share, onSlot[0].Load(), chains*depth)
		}
	}
}

// helpSpy reports every Help call of a policy after it returned.
type helpSpy struct {
	sched.Policy
	helped chan *dag.Task
}

func (s helpSpy) Help(w int) *dag.Task {
	t := s.Policy.Help(w)
	s.helped <- t
	return t
}

// TestHelpWakePinnedReachesSleeper pins the extra wake by a test and
// not by luck. Worker 1 is parked for certain — its second empty Help
// is the re-check after prepare, and nothing follows it but the park —
// when worker 0, played by the test, publishes tasks pinned to itself.
// Waking only the owner, which was the whole rule before the help tier,
// leaves the sleeper without a permit: it would sleep through any
// backlog and record zero helps. wakePinned deposits one, and the
// sleeper comes back with the most critical queued task.
func TestHelpWakePinnedReachesSleeper(t *testing.T) {
	g := &dag.Graph{Name: "backlog", Workers: 2}
	root := &dag.Task{ID: 0, Kind: dag.S, Static: true}
	g.Tasks = append(g.Tasks, root)
	for i := int32(1); i <= 2; i++ {
		root.Outs = append(root.Outs, i)
		g.Tasks = append(g.Tasks, &dag.Task{ID: i, Kind: dag.S, Static: true, NumDeps: 1, Prio: int64(i)})
	}
	spy := helpSpy{Policy: sched.NewHybrid(), helped: make(chan *dag.Task, 4)}
	e, err := newExecutor(g, spy, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.pol.Next(0); got != root {
		t.Fatalf("worker 0 popped %v, want the root", got)
	}
	got := make(chan *dag.Task, 1)
	go func() { got <- e.next(1) }()
	for i := 0; i < 2; i++ {
		if tk := <-spy.helped; tk != nil {
			t.Fatalf("worker 1 helped itself to %v with nothing queued", tk)
		}
	}

	ready := e.g.ResolveSuccessors(root, nil)
	e.outstanding.Add(int64(len(ready)))
	owner := e.pol.Ready(0, ready[1])
	if e.wk.wakeOwner(owner, 0) || len(e.wk.sem[1]) != 0 || !e.wk.parked[1].Load() {
		t.Fatal("waking the busy owner alone reached the parked worker")
	}

	e.wk.wakePinned(e.pol.Ready(0, ready[0]), 0)
	if tk := <-got; tk != ready[0] {
		t.Fatalf("woken worker came back with %v, want task %d", tk, ready[0].ID)
	}
	if c := e.pol.Counters(); c.Steals != 1 || c.Mismatches != 1 {
		t.Fatalf("counters %+v want one help", c)
	}
	e.fail(errors.New("test over"))
	if _, err := e.result(); err == nil {
		t.Fatal("abandoned run reported success")
	}
}
