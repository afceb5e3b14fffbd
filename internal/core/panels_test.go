package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
)

// drainByHand executes g on the calling goroutine in plain worklist
// order, with none of the runtime's teardown: in particular nothing
// calls ReleasePanels, so whatever the panels still hold afterwards is
// what their own reference counts left behind.
func drainByHand(g *dag.Graph) {
	ready := g.ResetDeps()
	for len(ready) > 0 {
		t := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if t.Run != nil {
			t.Run()
		}
		ready = g.ResolveSuccessors(t, ready)
	}
}

// TestSharedPanelsExactRefcount: BuildCALU registers one B handle per
// (step, block column) it updates column by column — every column on
// CM and 2l-BL, the look-ahead column and the dynamic section on BCL —
// with one consumer per row run. If a count were too high its buffer
// would outlive the run; too low, and the operand would be freed under
// its remaining consumers and packed again. A clean run must therefore
// end with no live bytes before any ReleasePanels and with at most one
// packing per handle — on every layout, with grouped and ungrouped row
// runs and ragged edges.
func TestSharedPanelsExactRefcount(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := mat.Random(333, 300, rng)
	for _, kind := range []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel} {
		for _, workers := range []int{1, 4, 6} {
			opt := Options{Layout: kind, Block: 40, Workers: workers, DynamicRatio: 0.25}
			ref, err := Factor(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			job, err := PrepareFactor(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			g := job.Graph()
			before := kernel.ReadPanelCacheStats()
			drainByHand(g)
			after := kernel.ReadPanelCacheStats()
			tag := kind.String() + "/" + string(rune('0'+workers)) + "w"
			if after.UsedBytes != before.UsedBytes {
				t.Errorf("%s: %d panel bytes still live after a clean run, before ReleasePanels", tag, after.UsedBytes-before.UsedBytes)
			}
			packs := after.Packs - before.Packs
			if packs > int64(len(g.Panels)) || (len(g.Panels) > 0 && packs == 0) {
				t.Errorf("%s: %d packings for %d handles, want at least one and at most one each", tag, packs, len(g.Panels))
			}
			// CM fuses a whole column into one row run: its B operands have
			// a single consumer each and no handle.
			if kind != layout.CM && after.Hits == before.Hits {
				t.Errorf("%s: no consumer streamed a cached panel", tag)
			}
			sameFactorization(t, tag, job.Finish(rt.Result{}), ref)
		}
	}
}

// TestAbortedRunFreesPanels: a task that panics mid-factorization
// leaves panels packed whose remaining consumers never run. The
// runtime's teardown must hand every byte back.
func TestAbortedRunFreesPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := mat.Random(320, 320, rng)
	// BCL: CM stacks a whole column into one row run, so its columns
	// have one consumer each and no shared panel.
	job, err := PrepareFactor(a, Options{Layout: layout.BCL, Block: 32, Workers: 4, DynamicRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	g := job.Graph()
	// Fail in the middle of step 1's update, in an S task past the
	// look-ahead column: step 0's look-ahead panel has been packed by
	// then, and other panels may be packed and partly consumed.
	bombed := false
	for _, task := range g.Tasks {
		if task.Kind == dag.S && task.K == 1 && task.J > 2 {
			task.Run = func() { panic("injected task failure") }
			bombed = true
			break
		}
	}
	if !bombed {
		t.Fatal("no S task to fail")
	}
	before := kernel.ReadPanelCacheStats()
	_, err = rt.Run(g, job.Policy(), rt.Options{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "injected task failure") {
		t.Fatalf("Run error = %v, want the injected panic", err)
	}
	after := kernel.ReadPanelCacheStats()
	if after.Packs == before.Packs {
		t.Fatal("no panel was packed before the failure: the test does not reach the path")
	}
	if after.UsedBytes != 0 {
		t.Fatalf("UsedBytes = %d after an aborted run, want 0", after.UsedBytes)
	}
}
