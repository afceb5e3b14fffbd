package dag

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// FusePart is one member of a fused composite graph: a complete job DAG
// plus the bookkeeping the owner of the composite needs to treat the
// member as a first-class job of its own.
type FusePart struct {
	// G is the member's task graph. Fuse clones its tasks, so the
	// original Graph value is left untouched (its dependency counters
	// are never armed) — but the Run closures are shared, and they
	// mutate the member job's layout in place, so a fused composite is
	// as single-use as the graphs it was built from.
	G *Graph
	// Label names the member in traces and error messages ("f-17",
	// "solve n=64x4", ...).
	Label string
	// OnDone, if non-nil, is called exactly once, from the worker
	// goroutine that executes the member's last task, when every task
	// of this member has completed. Fused members complete at different
	// times; the callback is what lets each root of the forest report
	// completion without waiting for its batch mates.
	OnDone func()
}

// PartSpan locates one member inside a fused graph: its tasks occupy
// the contiguous ID range [First, First+Tasks).
type PartSpan struct {
	Label string
	// First is the composite ID of the member's first task; Tasks its
	// task count.
	First, Tasks int32
}

// FusedGraph is the result of Fuse: one schedulable forest whose roots
// are the member graphs. It satisfies every Graph consumer (the
// runtime, the serial simulator, Validate, ComputeStats), and keeps the
// member boundaries so traces and stats can be attributed per subgraph.
type FusedGraph struct {
	*Graph
	// Parts records each member's label and task-ID span, in fusion
	// order.
	Parts []PartSpan
}

// PartOf returns the index into Parts of the member owning composite
// task ID id, or -1 if id is out of range.
func (f *FusedGraph) PartOf(id int32) int {
	for i := range f.Parts {
		p := &f.Parts[i]
		if id >= p.First && id < p.First+p.Tasks {
			return i
		}
	}
	return -1
}

// Fuse merges several independent job DAGs into one forest that a
// single executor reservation can drive: the express-lane batching of
// the engine's two-lane admission, where a burst of small factor/solve
// jobs shares one static reservation instead of each paying its own.
//
// Tasks are cloned with re-based IDs and edges, so the member graphs
// themselves are never armed or mutated; no edges are added between
// members (their dataflow stays exactly what their builders emitted),
// which is why the fused result is bit-identical to running each member
// alone — under every scheduling policy and worker count, the same
// property every single graph already has. Member owners are
// offset by the preceding members' worker widths so the forest's
// owner-computes distribution interleaves members across a shared pool
// instead of stacking every member's block row 0 on worker 0.
//
// Each member's OnDone callback fires when its own last task completes,
// so early members report completion while the rest of the forest is
// still executing.
func Fuse(parts ...FusePart) *FusedGraph {
	if len(parts) == 0 {
		panic("dag: Fuse needs at least one part")
	}
	total := 0
	workers := 0
	names := make([]string, 0, len(parts))
	for _, p := range parts {
		total += len(p.G.Tasks)
		// The composite is "built for" the widest member: the worker
		// count recorded here is only metadata (policies mod by the
		// executor's actual slot count), but keeping the max makes the
		// owner interleaving below meaningful.
		if p.G.Workers > workers {
			workers = p.G.Workers
		}
		names = append(names, p.Label)
	}
	fg := &FusedGraph{
		Graph: &Graph{
			Tasks:   make([]*Task, 0, total),
			Workers: workers,
			Name:    fmt.Sprintf("Fused[%s]", strings.Join(names, "+")),
		},
		Parts: make([]PartSpan, 0, len(parts)),
	}
	base := int32(0)
	ownerOff := 0
	for _, p := range parts {
		// The clone's Run closures still consume the member's shared
		// panel handles, so the fused graph adopts them for reset and
		// abort-time reclamation.
		fg.Panels = append(fg.Panels, p.G.Panels...)
		n := int32(len(p.G.Tasks))
		fg.Parts = append(fg.Parts, PartSpan{Label: p.Label, First: base, Tasks: n})
		// left counts the member's unfinished tasks; the task that
		// drives it to zero fires OnDone.
		left := new(atomic.Int32)
		left.Store(n)
		done := p.OnDone
		for _, t := range p.G.Tasks {
			ct := &Task{
				ID:      base + t.ID,
				Kind:    t.Kind,
				K:       t.K,
				I:       t.I,
				J:       t.J,
				Group:   t.Group,
				Owner:   t.Owner + ownerOff,
				Static:  t.Static,
				Flops:   t.Flops,
				Bytes:   t.Bytes,
				Prio:    t.Prio,
				NumDeps: t.NumDeps,
			}
			if len(t.Outs) > 0 {
				ct.Outs = make([]int32, len(t.Outs))
				for i, o := range t.Outs {
					ct.Outs[i] = base + o
				}
			}
			run := t.Run
			ct.Run = func() {
				if run != nil {
					run()
				}
				if left.Add(-1) == 0 && done != nil {
					done()
				}
			}
			fg.Tasks = append(fg.Tasks, ct)
		}
		base += n
		ownerOff += p.G.Workers
	}
	return fg
}
