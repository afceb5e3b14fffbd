package dag

import (
	"fmt"
	"strings"
)

// FusePart is one member of a fused graph: a complete job DAG and the
// label that names it in the fused graph's Name.
type FusePart struct {
	// G is the member's task graph. Fuse clones its tasks, so the
	// original Graph value is left untouched (its dependency counters
	// are never armed) — but the Run closures are shared, and they
	// mutate the member job's layout in place, so a fused graph is as
	// single-use as the graphs it was built from.
	G     *Graph
	Label string
}

// Fuse merges several independent job DAGs into one forest that one
// run can execute. The engine runs every job as a run of its own; Fuse
// stays for the benchmark's dag probe, which times it.
//
// Tasks are cloned with re-based IDs and edges, so the member graphs
// themselves are never armed or mutated; no edges are added between
// members (their dataflow stays exactly what their builders emitted),
// which is why the fused result is bit-identical to running each member
// alone — under every scheduling policy and worker count, the same
// property every single graph already has. Member owners are offset by
// the preceding members' worker widths so the forest's owner-computes
// distribution interleaves members across a shared pool instead of
// stacking every member's block row 0 on worker 0.
func Fuse(parts ...FusePart) *Graph {
	if len(parts) == 0 {
		panic("dag: Fuse needs at least one part")
	}
	total := 0
	workers := 0
	names := make([]string, 0, len(parts))
	for _, p := range parts {
		total += len(p.G.Tasks)
		// The forest is "built for" the widest member: the worker count
		// recorded here is only metadata (policies mod by the executor's
		// actual slot count), but keeping the max makes the owner
		// interleaving below meaningful.
		if p.G.Workers > workers {
			workers = p.G.Workers
		}
		names = append(names, p.Label)
	}
	fg := &Graph{
		Tasks:   make([]*Task, 0, total),
		Workers: workers,
		Name:    fmt.Sprintf("Fused[%s]", strings.Join(names, "+")),
	}
	base := int32(0)
	ownerOff := 0
	for _, p := range parts {
		// The clone's Run closures still consume the member's shared
		// panel handles, so the fused graph adopts them for reset and
		// abort-time reclamation.
		fg.Panels = append(fg.Panels, p.G.Panels...)
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
				Run:     t.Run,
			}
			if len(t.Outs) > 0 {
				ct.Outs = make([]int32, len(t.Outs))
				for i, o := range t.Outs {
					ct.Outs[i] = base + o
				}
			}
			fg.Tasks = append(fg.Tasks, ct)
		}
		base += int32(len(p.G.Tasks))
		ownerOff += p.G.Workers
	}
	return fg
}
