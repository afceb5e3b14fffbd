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

// TestSharedPanelsExactRefcount: BuildCALU registers one B handle per
// (step, block column) it updates column by column — every column on
// CM and 2l-BL, the look-ahead column and the dynamic section on BCL —
// with one consumer per row run. If a count were too low, the operand
// would be given back under its remaining consumers and packed again;
// too high, and its buffer would outlive the run. A clean run must
// therefore pack at most once per handle and end with every buffer
// given back — on every layout, with grouped and ungrouped row runs and
// ragged edges.
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
			res, err := rt.Run(g, job.Policy(), rt.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			after := kernel.ReadPanelCacheStats()
			tag := kind.String() + "/" + string(rune('0'+workers)) + "w"
			// A handle exists only where two consumers take the packed
			// path, so each packs exactly once and serves at least one hit.
			packs, hits := after.Packs-before.Packs, after.Hits-before.Hits
			if packs != int64(len(g.Panels)) || hits < packs {
				t.Errorf("%s: %d packings and %d hits for %d handles, want one packing and a hit or more each", tag, packs, hits, len(g.Panels))
			}
			for i, p := range g.Panels {
				if p.Held() {
					t.Errorf("%s: handle %d still holds its buffer after a clean run", tag, i)
				}
			}
			// CM fuses a whole column into one row run: its B operands have
			// a single consumer each and no handle.
			if kind != layout.CM && hits == 0 {
				t.Errorf("%s: no consumer streamed a cached panel", tag)
			}
			sameFactorization(t, tag, job.Finish(res), ref)
		}
	}
}

// TestAbortedRunFreesPanels: a task that panics mid-factorization
// leaves panels packed whose remaining consumers never run. Their
// buffers are left to the garbage collector, and nothing the aborted
// run packed or gave back may reach a later factorization: one run
// after it must be bit-identical to one run before it.
func TestAbortedRunFreesPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := mat.Random(320, 320, rng)
	// BCL: CM stacks a whole column into one row run, so its columns
	// have one consumer each and no shared panel.
	opt := Options{Layout: layout.BCL, Block: 32, Workers: 4, DynamicRatio: 0.25}
	ref, err := Factor(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	job, err := PrepareFactor(a, opt)
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
	if after := kernel.ReadPanelCacheStats(); after.Packs == before.Packs {
		t.Fatal("no panel was packed before the failure: the test does not reach the path")
	}
	f, err := Factor(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFactorization(t, "after an aborted run", f, ref)
}
