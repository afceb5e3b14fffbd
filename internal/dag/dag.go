// Package dag builds the task dependency graphs of the factorization
// algorithms: CALU (the paper's algorithm, section 2/3), tiled
// Cholesky, the MKL-style GEPP baseline and the PLASMA-style
// incremental-pivoting baseline.
//
// Each algorithm has one builder (NewCALU, newCholesky, NewGEPP,
// NewIncPiv), which reads only a layout.Shape. Its graph is executed
// either by the discrete-event simulator (internal/sim), which never
// calls Run and charges each task's Flops/Bytes to a machine model, or
// by the real goroutine runtime (internal/rt), which calls each task's
// Run closure to do the arithmetic on the storage the graph's Layout
// field names when the task runs (BuildCALU and its siblings build from
// a layout's Shape and set that field). Both consume the same graph, so
// the scheduling behaviour under study is identical in the two modes.
package dag

import (
	"fmt"
	"sync/atomic"

	"repro/internal/kernel"
)

// Kind labels a task with the paper's taxonomy (section 2): P tasks
// participate in TSLU preprocessing, L/U compute the panel factors, S
// updates the trailing matrix. The P work is split into tree leaves,
// tree combines and the finalization that applies the winning pivots.
type Kind uint8

const (
	// PLeaf runs GEPP on one chunk of panel rows to nominate candidates.
	PLeaf Kind = iota
	// PCombine merges two candidate sets in the tournament tree.
	PCombine
	// Final applies the winning swaps to the panel and factors the
	// b x b pivot block (the end of task P in the paper's notation).
	Final
	// L computes L_IK = A_IK * U_KK^{-1} for one block row.
	L
	// U applies the step's row swaps to one block column and computes
	// U_KJ = L_KK^{-1} A_KJ (the paper's "right swap" + task U).
	U
	// S updates trailing blocks: A_IJ -= L_IK * U_KJ, possibly grouped
	// over several owned block rows (the k=3 grouping of section 3) and,
	// under BCL on a narrow grid, over an owner's static block columns
	// past the look-ahead column (NewCALU).
	S
	// DSolve is a diagonal triangular-solve task of the blocked
	// triangular-solve graph (solve.go): X_K <- T_KK^{-1} X_K.
	DSolve
	// RUpd is a right-hand-side GEMM update task of the solve graph:
	// X_I -= T_IK * X_K.
	RUpd
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case PLeaf:
		return "P-leaf"
	case PCombine:
		return "P-comb"
	case Final:
		return "F"
	case L:
		return "L"
	case U:
		return "U"
	case S:
		return "S"
	case DSolve:
		return "D"
	case RUpd:
		return "R"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// kindOrder breaks priority ties so panel-critical work runs first.
func kindOrder(k Kind) int {
	switch k {
	case PLeaf:
		return 0
	case PCombine:
		return 1
	case Final:
		return 2
	case L, DSolve:
		return 3
	case U:
		return 4
	default:
		return 5
	}
}

// Task is one node of the dependency graph.
type Task struct {
	ID   int32
	Kind Kind
	// K is the panel step; I is the block row (L/S), chunk or tree index
	// (P tasks); J is the leading block column (U/S).
	K, I, J int
	// Group lists every block row a grouped S task covers (the paper's
	// k-way fusion of update blocks that share the same columns, or a
	// merged task's rows); nil means the task covers only block row I.
	Group []int
	// Owner is the worker that owns the task's output block under the
	// 2D block-cyclic distribution; it is the task's data home for the
	// locality model, and the queue it is pinned to when Static.
	Owner int
	// Static marks tasks in the first Nstatic panels (Algorithm 1).
	Static bool
	// Flops and Bytes drive the simulator's cost model.
	Flops float64
	Bytes float64
	// Prio orders ready queues: ascending = left-to-right, panel first,
	// which realizes both the look-ahead of the static section and the
	// DFS traversal of Algorithm 2 in the dynamic section.
	Prio int64
	// Run performs the task's arithmetic when the runtime executes it;
	// the simulator never calls it. The factorization graphs' closures
	// read their storage from the graph's Layout field at that time.
	Run func()

	// NumDeps is the static in-degree. It is immutable once the graph
	// is built; the mutable remaining-dependency counter lives in the
	// unexported `remaining` field below and is re-armed by ResetDeps,
	// so a Graph can be executed many times.
	NumDeps int32
	// Outs lists dependent task IDs.
	Outs []int32

	// remaining counts unsatisfied dependencies during one execution.
	// It is decremented atomically by ResolveSuccessors so that task
	// completion can resolve and enqueue ready successors from many
	// workers at once without a global lock. One Graph supports one
	// execution at a time (serial simulator or concurrent runtime);
	// concurrent executions of the same Graph value would share this
	// counter and must clone the graph instead.
	remaining atomic.Int32
}

// Graph is an immutable task DAG plus bookkeeping shared by runtimes.
type Graph struct {
	Tasks []*Task
	// Workers is the worker count the static distribution was built for.
	Workers int
	// Name describes the algorithm for traces and error messages.
	Name string
	// Panels lists the shared packed-B panel handles the graph's Run
	// closures consume (kernel.SharedPanel). Each handle gives its
	// buffer back when its last consumer finishes, and ResetDeps re-arms
	// them alongside the dependency counters.
	Panels []*kernel.SharedPanel
}

// ResetDeps arms the graph for one execution: every task's remaining-
// dependency counter is reset to its static in-degree. It returns the
// initially ready (zero-dependency) tasks in ID order, which keeps the
// serial simulator's seeding deterministic. Must not run concurrently
// with an execution of the same graph.
func (g *Graph) ResetDeps() []*Task {
	for _, p := range g.Panels {
		p.Reset()
	}
	var ready []*Task
	for _, t := range g.Tasks {
		t.remaining.Store(t.NumDeps)
		if t.NumDeps == 0 {
			ready = append(ready, t)
		}
	}
	return ready
}

// ResolveSuccessors records the completion of t: each successor's
// remaining-dependency counter is decremented atomically, and the ones
// that reach zero — now ready to run — are appended to ready, which is
// returned (pass a scratch slice to avoid allocation). It is safe to
// call from many goroutines for different completed tasks; each
// successor reaches zero exactly once, so exactly one caller enqueues
// it.
func (g *Graph) ResolveSuccessors(t *Task, ready []*Task) []*Task {
	for _, o := range t.Outs {
		s := g.Tasks[o]
		if s.remaining.Add(-1) == 0 {
			ready = append(ready, s)
		}
	}
	return ready
}

// priority computes the global ordering key: column-major (left to
// right), then by step, then by kind. col is the task's leading block
// column (K for P/F/L tasks, J for U/S).
func priority(col, k int, kind Kind) int64 {
	return int64(col)<<32 | int64(k)<<8 | int64(kindOrder(kind))
}

// builder accumulates tasks and edges.
type builder struct {
	g *Graph
}

func newBuilder(name string, workers int) *builder {
	return &builder{g: &Graph{Name: name, Workers: workers}}
}

func (b *builder) add(t *Task) *Task {
	t.ID = int32(len(b.g.Tasks))
	b.g.Tasks = append(b.g.Tasks, t)
	return t
}

// panel registers a shared packed-operand handle with the graph so
// ResetDeps can re-arm it, and returns it. Nil handles (fewer than two
// consumers on the packed path) are skipped; the closures pass them on and
// kernel.GemmShared packs privately.
func (b *builder) panel(p *kernel.SharedPanel) *kernel.SharedPanel {
	if p != nil {
		b.g.Panels = append(b.g.Panels, p)
	}
	return p
}

// edge makes `to` depend on `from`.
func (b *builder) edge(from, to *Task) {
	if from == nil || to == nil {
		return
	}
	from.Outs = append(from.Outs, to.ID)
	to.NumDeps++
}

// Validate checks structural invariants: every edge target exists, the
// graph is acyclic, and every task is reachable from the sources. It
// returns an error describing the first violation.
func (g *Graph) Validate() error {
	n := len(g.Tasks)
	indeg := make([]int32, n)
	for id, t := range g.Tasks {
		if int32(id) != t.ID {
			return fmt.Errorf("dag: task %d stored at index %d", t.ID, id)
		}
		for _, o := range t.Outs {
			if o < 0 || int(o) >= n {
				return fmt.Errorf("dag: task %d has edge to missing task %d", t.ID, o)
			}
			indeg[o]++
		}
	}
	for id, t := range g.Tasks {
		if indeg[id] != t.NumDeps {
			return fmt.Errorf("dag: task %d in-degree %d != NumDeps %d", id, indeg[id], t.NumDeps)
		}
	}
	// If the walk cannot consume every task, there is a cycle.
	if seen := g.walk(nil); seen != n {
		return fmt.Errorf("dag: cycle detected, only %d of %d tasks schedulable", seen, n)
	}
	return nil
}

// walk visits the tasks in a topological order — Kahn's algorithm on
// the NumDeps counts, a task visited before its successors — calling
// visit, if not nil, on each, and returns how many it visited: fewer
// than len(g.Tasks) means a cycle. Every edge target must exist.
func (g *Graph) walk(visit func(*Task)) int {
	indeg := make([]int32, len(g.Tasks))
	queue := make([]int32, 0, len(g.Tasks))
	for id, t := range g.Tasks {
		indeg[id] = t.NumDeps
		if t.NumDeps == 0 {
			queue = append(queue, int32(id))
		}
	}
	seen := 0
	for len(queue) > 0 {
		t := g.Tasks[queue[len(queue)-1]]
		queue = queue[:len(queue)-1]
		seen++
		if visit != nil {
			visit(t)
		}
		for _, o := range t.Outs {
			if indeg[o]--; indeg[o] == 0 {
				queue = append(queue, o)
			}
		}
	}
	return seen
}

// Stats summarizes a graph for tests and reports.
type Stats struct {
	Total      int
	ByKind     map[Kind]int
	StaticTask int
	DynTask    int
	Edges      int
	TotalFlops float64
}

// ComputeStats tallies task counts, the static/dynamic split and flops.
func (g *Graph) ComputeStats() Stats {
	s := Stats{ByKind: map[Kind]int{}}
	for _, t := range g.Tasks {
		s.Total++
		s.ByKind[t.Kind]++
		if t.Static {
			s.StaticTask++
		} else {
			s.DynTask++
		}
		s.Edges += len(t.Outs)
		s.TotalFlops += t.Flops
	}
	return s
}

// CriticalPath returns the longest path through the graph with each
// task weighted by cost; weighted by a task's compute time it is the
// quantity T_criticalPath in the paper's section 6 model.
func (g *Graph) CriticalPath(cost func(*Task) float64) float64 {
	// longest[id] is the heaviest path into task id until the walk
	// visits it and adds the task's own cost.
	longest := make([]float64, len(g.Tasks))
	best := 0.0
	g.walk(func(t *Task) {
		longest[t.ID] += cost(t)
		best = max(best, longest[t.ID])
		for _, o := range t.Outs {
			longest[o] = max(longest[o], longest[t.ID])
		}
	})
	return best
}
