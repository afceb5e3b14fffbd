package rt

import (
	"strings"
	"sync/atomic"
	"testing"

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
// dependencies. Run it under -race to exercise the lock-free dispatch
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
		func() sched.Policy { return sched.NewWorkStealing(11) },
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
		sched.NewStatic(), sched.NewDynamic(), sched.NewHybrid(), sched.NewWorkStealing(23),
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
