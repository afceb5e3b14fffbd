package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Config describes one simulated execution.
type Config struct {
	// Machine is the platform model.
	Machine Machine
	// Workers caps the cores used (0 = all cores); the paper's 24-core
	// AMD experiments use half the machine.
	Workers int
	// Layout tells the cost model which storage scheme the graph's
	// tasks operate on.
	Layout layout.Kind
	// Policy is the scheduling strategy: the same objects the real
	// runtime uses, driven here from one goroutine.
	Policy sched.Policy
	// Help lets a worker that is still idle after every idle worker has
	// had its Next ask the policy's Help tier at once. That is the eager
	// form of what internal/rt does only when a worker is about to park,
	// and it is what the help ablation measures; every paper figure runs
	// with it off.
	Help bool
	// Trace, if non-nil, records the virtual-time execution timeline.
	Trace *trace.Trace
	// Seed re-seeds the machine's noise generator so repeated runs are
	// reproducible yet distinct across seeds.
	Seed int64
}

// Result reports a simulated execution.
type Result struct {
	// Makespan is the virtual execution time in seconds.
	Makespan float64
	// BusyTime is aggregate compute seconds across workers; Overhead is
	// dequeue + migration seconds; NoiseTime is injected interference;
	// IdleTime closes the accounting identity
	// Busy+Overhead+Noise+Idle = Makespan*Workers.
	BusyTime, OverheadTime, NoiseTime, IdleTime float64
	// Gflops is total task flops / makespan / 1e9.
	Gflops float64
	// Counters carries scheduler instrumentation.
	Counters sched.Counters
	// PerWorkerBusy supports the delta estimation of the section 6 model.
	PerWorkerBusy []float64
	// PerWorkerNoise is the injected interference per worker — the
	// delta_i of Theorem 1, measured directly.
	PerWorkerNoise []float64
}

// event is a task completion in the virtual timeline.
type event struct {
	at     float64
	worker int
	task   *dag.Task
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Run executes the graph on the machine model and returns the virtual
// makespan and accounting. The graph's Run closures are never invoked.
func Run(g *dag.Graph, cfg Config) (Result, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return Result{}, err
	}
	p := cfg.Workers
	if p <= 0 || p > cfg.Machine.Cores() {
		p = cfg.Machine.Cores()
	}
	if cfg.Machine.Noise != nil {
		cfg.Machine.Noise.Reset(cfg.Seed)
	}
	pol := cfg.Policy
	pol.Reset(g, p)
	effScale := cfg.Machine.EffScale
	if effScale <= 0 {
		effScale = 1
	}

	n := len(g.Tasks)
	// The dependency state lives on the graph (dag.ResetDeps); the
	// simulator drives it and the policy serially from its event loop
	// (the policy's locks are never contended, its wake hints unused),
	// which keeps every policy decision deterministic and byte-for-byte
	// identical across runs.
	for _, t := range g.ResetDeps() {
		pol.Ready(sched.SeedWorker, t)
	}
	var readyScratch []*dag.Task

	res := Result{PerWorkerBusy: make([]float64, p), PerWorkerNoise: make([]float64, p)}
	var events eventHeap
	now := 0.0
	completed := 0
	queueFreeAt := 0.0 // shared-queue serialization point
	idle := make([]bool, p)
	for w := range idle {
		idle[w] = true
	}

	// dispatch assigns as many ready tasks as possible at virtual time
	// `now`, in worker order (deterministic).
	dispatch := func() {
		help := false
		for {
			progress := false
			order := make([]int, 0, p)
			for w := 0; w < p; w++ {
				if idle[w] {
					order = append(order, w)
				}
			}
			sort.Ints(order)
			for _, w := range order {
				var t *dag.Task
				if help {
					t = pol.Help(w)
				} else {
					t = pol.Next(w)
				}
				if t == nil {
					continue
				}
				progress = true
				start := now
				overhead := 0.0
				if t.Static {
					overhead += cfg.Machine.StaticDequeueSec
				} else {
					// Shared-queue pops serialize: the pop cannot begin
					// before the previous pop's critical section ended.
					if queueFreeAt > start {
						overhead += queueFreeAt - start
					}
					overhead += cfg.Machine.DynamicDequeueSec
					queueFreeAt = start + overhead
				}
				// Locality: executing away from the data home costs a
				// per-byte migration penalty scaled by NUMA distance.
				home := t.Owner % p
				var nsPerByte float64
				switch {
				case home == w:
					nsPerByte = 0
				case cfg.Machine.Socket(home) == cfg.Machine.Socket(w):
					nsPerByte = cfg.Machine.SameSocketNsPerByte
				default:
					nsPerByte = cfg.Machine.RemoteNsPerByte
				}
				if cfg.Layout == layout.CM && nsPerByte > 0 {
					nsPerByte *= cfg.Machine.CMExtraFactor
				}
				migration := t.Bytes * nsPerByte * 1e-9
				compute := t.Flops / (cfg.Machine.CoreGflops * 1e9 * Efficiency(t, cfg.Layout) * effScale)
				if home != w && cfg.Layout == layout.TwoLevel && t.Kind == dag.S {
					// A migrated tile update loses the cache residency the
					// two-level layout exists to provide.
					compute *= 1 + cfg.Machine.TileReuseLossFactor
				}
				if home != w && t.Kind != dag.S && cfg.Machine.PanelMigrationFactor > 1 {
					// Panel-class kernels are latency-bound column gathers;
					// running them on a far core multiplies their cost.
					compute *= cfg.Machine.PanelMigrationFactor
				}
				nz := 0.0
				if cfg.Machine.Noise != nil {
					nz = cfg.Machine.Noise.Delay(w, start, compute+migration+overhead)
				}
				end := start + overhead + migration + compute + nz
				res.BusyTime += compute
				res.OverheadTime += overhead + migration
				res.NoiseTime += nz
				res.PerWorkerNoise[w] += nz
				res.PerWorkerBusy[w] += compute + migration
				if cfg.Trace != nil {
					cfg.Trace.Add(w, t.ID, trace.KindLabel(t.Kind.String()), start, end)
				}
				idle[w] = false
				heap.Push(&events, event{at: end, worker: w, task: t})
			}
			if !progress && (help || !cfg.Help) {
				return
			}
			// A pass of Next that started nothing is followed by one of
			// Help: an idle owner always gets to pop its own queue first.
			help = !progress
		}
	}

	dispatch()
	for completed < n {
		if events.Len() == 0 {
			return Result{}, fmt.Errorf("sim: graph %q stuck with %d/%d tasks done", g.Name, completed, n)
		}
		e := heap.Pop(&events).(event)
		now = e.at
		completed++
		idle[e.worker] = true
		readyScratch = g.ResolveSuccessors(e.task, readyScratch[:0])
		for _, t := range readyScratch {
			pol.Ready(e.worker, t)
		}
		dispatch()
	}

	res.Makespan = now
	res.Counters = pol.Counters()
	total := 0.0
	for _, t := range g.Tasks {
		total += t.Flops
	}
	if now > 0 {
		res.Gflops = total / now / 1e9
	}
	res.IdleTime = now*float64(p) - res.BusyTime - res.OverheadTime - res.NoiseTime
	return res, nil
}

// CriticalPathSeconds returns the longest compute-weighted path through
// the graph under the machine's efficiency model (no migration, queue
// or noise costs): the T_criticalPath term that section 6 adds to the
// denominator of Theorem 1 when the core count is large relative to
// T1/T_criticalPath.
func CriticalPathSeconds(g *dag.Graph, m Machine, kind layout.Kind) float64 {
	effScale := m.EffScale
	if effScale <= 0 {
		effScale = 1
	}
	cost := func(t *dag.Task) float64 {
		return t.Flops / (m.CoreGflops * 1e9 * Efficiency(t, kind) * effScale)
	}
	n := len(g.Tasks)
	longest := make([]float64, n)
	indeg := make([]int32, n)
	for _, t := range g.Tasks {
		indeg[t.ID] = t.NumDeps
	}
	queue := make([]int32, 0, n)
	for _, t := range g.Tasks {
		if t.NumDeps == 0 {
			queue = append(queue, t.ID)
			longest[t.ID] = cost(t)
		}
	}
	best := 0.0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if longest[id] > best {
			best = longest[id]
		}
		for _, o := range g.Tasks[id].Outs {
			if cand := longest[id] + cost(g.Tasks[o]); cand > longest[o] {
				longest[o] = cand
			}
			indeg[o]--
			if indeg[o] == 0 {
				queue = append(queue, o)
			}
		}
	}
	return best
}

// FactorSim builds the CALU graph of an (m x n) matrix with block size b
// over the worker grid implied by cfg and simulates it. The graph is
// built from a layout.Shape and no matrix is allocated, which is what
// makes paper-scale sizes (n = 15000) simulable in milliseconds.
func FactorSim(m, n, b int, nstaticCols, group int, cfg Config) (Result, error) {
	p := cfg.Workers
	if p <= 0 || p > cfg.Machine.Cores() {
		p = cfg.Machine.Cores()
		cfg.Workers = p
	}
	s := layout.NewShape(cfg.Layout, m, n, b, layout.NewGrid(p))
	return Run(dag.NewCALU(s, dag.CALUOptions{NstaticCols: nstaticCols, Group: group}).Graph, cfg)
}
