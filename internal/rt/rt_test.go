package rt

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/sched"
	"repro/internal/trace"
)

// chainGraph builds a linear chain of n tasks that each bump a counter;
// order violations are detected by checking the counter value seen.
func chainGraph(n int, counter *int64, sawOrder *atomic.Bool) *dag.Graph {
	g := &dag.Graph{Name: "chain", Workers: 1}
	var prev *dag.Task
	for i := 0; i < n; i++ {
		ic := int64(i)
		t := &dag.Task{ID: int32(i), Kind: dag.S, Prio: int64(i)}
		t.Run = func() {
			if atomic.AddInt64(counter, 1)-1 != ic {
				sawOrder.Store(true)
			}
		}
		if prev != nil {
			prev.Outs = append(prev.Outs, t.ID)
			t.NumDeps = 1
		}
		g.Tasks = append(g.Tasks, t)
		prev = t
	}
	return g
}

// diamondGraph: one source fans out to `width` tasks which join into a sink.
func diamondGraph(width int, counter *int64) *dag.Graph {
	g := &dag.Graph{Name: "diamond", Workers: 1}
	src := &dag.Task{ID: 0, Kind: dag.Final, Run: func() { atomic.AddInt64(counter, 1) }}
	g.Tasks = append(g.Tasks, src)
	sink := &dag.Task{ID: int32(width + 1), Kind: dag.Final, Run: func() { atomic.AddInt64(counter, 1) }}
	for i := 1; i <= width; i++ {
		t := &dag.Task{ID: int32(i), Kind: dag.S, Owner: i % 4, NumDeps: 1, Prio: int64(i)}
		t.Run = func() { atomic.AddInt64(counter, 1) }
		src.Outs = append(src.Outs, t.ID)
		t.Outs = append(t.Outs, sink.ID)
		sink.NumDeps++
		g.Tasks = append(g.Tasks, t)
	}
	g.Tasks = append(g.Tasks, sink)
	return g
}

func TestRunChainRespectsOrder(t *testing.T) {
	var counter int64
	var bad atomic.Bool
	g := chainGraph(50, &counter, &bad)
	for _, workers := range []int{1, 2, 4} {
		counter = 0
		bad.Store(false)
		if _, err := Run(g, sched.NewDynamic(), Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if counter != 50 {
			t.Fatalf("workers=%d: ran %d/50 tasks", workers, counter)
		}
		if bad.Load() {
			t.Fatalf("workers=%d: dependency order violated", workers)
		}
	}
}

func TestRunDiamondAllPolicies(t *testing.T) {
	policies := []sched.Policy{sched.NewStatic(), sched.NewDynamic(), sched.NewHybrid()}
	for _, p := range policies {
		var counter int64
		g := diamondGraph(40, &counter)
		if _, err := Run(g, p, Options{Workers: 4}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if counter != 42 {
			t.Fatalf("%s: ran %d/42", p.Name(), counter)
		}
	}
}

func TestRunEmptyGraph(t *testing.T) {
	res, err := Run(&dag.Graph{Name: "empty"}, sched.NewDynamic(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Fatal("empty graph should be instantaneous")
	}
}

func TestRunRejectsZeroWorkers(t *testing.T) {
	var c int64
	g := diamondGraph(2, &c)
	if _, err := Run(g, sched.NewDynamic(), Options{Workers: 0}); err == nil {
		t.Fatal("expected error for zero workers")
	}
}

func TestRunDetectsStuckGraph(t *testing.T) {
	// A task whose dependency count can never reach zero (self-edge is
	// caught by Validate; here we just claim an extra dep).
	g := &dag.Graph{Name: "stuck"}
	t1 := &dag.Task{ID: 0, Kind: dag.S, NumDeps: 1, Run: func() {}}
	g.Tasks = append(g.Tasks, t1)
	if _, err := Run(g, sched.NewDynamic(), Options{Workers: 2}); err == nil {
		t.Fatal("expected stuck-graph error")
	}
}

func TestRunTraceRecordsEverySpan(t *testing.T) {
	var counter int64
	g := diamondGraph(20, &counter)
	tr := trace.New(3)
	if _, err := Run(g, sched.NewDynamic(), Options{Workers: 3, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for w := 0; w < 3; w++ {
		total += len(tr.Spans[w])
	}
	if total != 22 {
		t.Fatalf("trace has %d spans want 22", total)
	}
}

func TestRunNoiseInjection(t *testing.T) {
	var counter int64
	g := diamondGraph(4, &counter)
	var calls atomic.Int64
	start := time.Now()
	_, err := Run(g, sched.NewDynamic(), Options{
		Workers: 2,
		Noise: func(w int) time.Duration {
			calls.Add(1)
			return 2 * time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 6 {
		t.Fatalf("noise called %d times want 6", calls.Load())
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("noise did not actually delay execution")
	}
}

func TestRunStaticHonorsOwnership(t *testing.T) {
	// With the static policy, every task must run on its owner.
	g := &dag.Graph{Name: "owned"}
	var wrong atomic.Bool
	ran := make([]atomic.Int64, 4)
	for i := 0; i < 40; i++ {
		owner := i % 4
		oc := owner
		t2 := &dag.Task{ID: int32(i), Kind: dag.S, Owner: owner, Static: true, Prio: int64(i)}
		t2.Run = func() { ran[oc].Add(1) }
		g.Tasks = append(g.Tasks, t2)
	}
	// Wrap the policy: record executing worker via closure per Next is
	// not possible from outside, so instead rely on owner queues: with
	// Static, worker w only pops owner-w tasks; if the counts come out
	// right for all four workers, ownership was honored.
	if _, err := Run(g, sched.NewStatic(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if ran[w].Load() != 10 {
			t.Fatalf("owner %d ran %d tasks want 10", w, ran[w].Load())
		}
	}
	if wrong.Load() {
		t.Fatal("ownership violated")
	}
}

func TestMakespanPositive(t *testing.T) {
	var counter int64
	g := diamondGraph(8, &counter)
	res, err := Run(g, sched.NewHybrid(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan must be positive")
	}
}

func TestRunRecoversTaskPanic(t *testing.T) {
	g := &dag.Graph{Name: "panicky"}
	g.Tasks = append(g.Tasks, &dag.Task{ID: 0, Kind: dag.Final, Run: func() { panic("numerical failure") }})
	if _, err := Run(g, sched.NewDynamic(), Options{Workers: 2}); err == nil {
		t.Fatal("expected a panic-derived error")
	}
}

// TestRunTasksUseKernelWorkspaces executes a graph whose tasks run real
// packed GEMMs concurrently, each on a pack-buffer set of its own, and
// verifies every task computed the right update.
func TestRunTasksUseKernelWorkspaces(t *testing.T) {
	const nTasks, sz = 8, 96
	mk := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		d := make([]float64, sz*sz)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		return d
	}
	g := &dag.Graph{Name: "gemm-tasks", Workers: 4}
	type job struct{ a, b, c, want []float64 }
	jobs := make([]job, nTasks)
	for i := range jobs {
		jobs[i] = job{a: mk(int64(3 * i)), b: mk(int64(3*i + 1)), c: mk(int64(3*i + 2))}
		jobs[i].want = append([]float64(nil), jobs[i].c...)
		v := func(d []float64) kernel.View {
			return kernel.View{Rows: sz, Cols: sz, Stride: sz, Data: d}
		}
		kernel.GemmNaive(v(jobs[i].want), v(jobs[i].a), v(jobs[i].b))
		jc := i
		g.Tasks = append(g.Tasks, &dag.Task{ID: int32(i), Kind: dag.S, Run: func() {
			kernel.Gemm(v(jobs[jc].c), v(jobs[jc].a), v(jobs[jc].b))
		}})
	}
	if _, err := Run(g, sched.NewDynamic(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		for e := range j.c {
			if d := math.Abs(j.c[e] - j.want[e]); d > 1e-11 {
				t.Fatalf("task %d element %d off by %g", i, e, d)
			}
		}
	}
}

// TestRunWiderThanMachineAllocatesNoPackBuffers: a run with more
// workers than the machine has processors takes its pack buffers from
// the kernel's free list like any other. A chain of packed GEMMs holds
// one buffer set at a time, so once a warm-up run has filled the list
// a run allocates only its own bookkeeping — not a megabyte-scale set.
func TestRunWiderThanMachineAllocatesNoPackBuffers(t *testing.T) {
	const nTasks, sz, runs = 8, 96, 20
	v := func() kernel.View {
		return kernel.View{Rows: sz, Cols: sz, Stride: sz, Data: make([]float64, sz*sz)}
	}
	a, b, c := v(), v(), v()
	g := &dag.Graph{Name: "gemm-chain", Workers: 1}
	for i := 0; i < nTasks; i++ {
		task := &dag.Task{ID: int32(i), Kind: dag.S, Run: func() { kernel.Gemm(c, a, b) }}
		if i > 0 {
			g.Tasks[i-1].Outs = []int32{task.ID}
			task.NumDeps = 1
		}
		g.Tasks = append(g.Tasks, task)
	}
	pol := sched.NewDynamic()
	opt := Options{Workers: runtime.NumCPU() + 2}
	if _, err := Run(g, pol, opt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(g, pol, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 256<<10 {
		t.Fatalf("%d bytes allocated per run at Workers=%d, want under 256 KiB: pack buffers re-allocated", per, opt.Workers)
	}
}
