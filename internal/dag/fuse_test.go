package dag

import "testing"

// chainGraph builds a synthetic linear chain of n tasks, enough
// structure to exercise fusion without real arithmetic.
func chainGraph(tag string, n, workers int) *Graph {
	b := newBuilder(tag, workers)
	var prev *Task
	for i := 0; i < n; i++ {
		t := b.add(&Task{Kind: S, K: i, I: i, Owner: i % workers, Prio: int64(i)})
		b.edge(prev, t)
		prev = t
	}
	return b.g
}

// TestFuseStructure checks the composite forest: IDs re-based, edges
// intact, owners offset per part, Validate clean, and the member graphs
// left untouched.
func TestFuseStructure(t *testing.T) {
	ga := chainGraph("A", 3, 2)
	gb := chainGraph("B", 2, 1)
	fg := Fuse(
		FusePart{G: ga, Label: "A"},
		FusePart{G: gb, Label: "B"},
	)
	if err := fg.Validate(); err != nil {
		t.Fatalf("fused graph invalid: %v", err)
	}
	if len(fg.Tasks) != 5 {
		t.Fatalf("fused task count %d, want 5", len(fg.Tasks))
	}
	// Part B's owners must be offset by part A's worker width (2).
	if got := fg.Tasks[3].Owner; got != 2 {
		t.Fatalf("part B owner offset: got %d, want 2", got)
	}
	// Two roots: task 0 of each part.
	roots := fg.ResetDeps()
	if len(roots) != 2 || roots[0].ID != 0 || roots[1].ID != 3 {
		t.Fatalf("fused roots %v, want IDs [0 3]", roots)
	}
	// The member graphs were cloned, not mutated.
	if ga.Tasks[0].ID != 0 || gb.Tasks[0].ID != 0 {
		t.Fatal("Fuse mutated the member graphs' task IDs")
	}
	if gb.Tasks[0].Owner != 0 {
		t.Fatal("Fuse mutated the member graphs' owners")
	}
}
