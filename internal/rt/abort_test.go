package rt

import (
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/sched"
)

// TestAbortReleasesSharedPanels pins the release-on-abort contract:
// when a task panics mid-run, shared packed-B panels whose later
// consumers never execute must still return their bytes to the cache
// budget. The run calls Graph.ReleasePanels once every worker has
// returned, so a panicking job may strand a panel's refcount above zero
// but never its buffer.
//
// The graph is a three-task chain: t0 packs the shared panel via its
// first Gemm consumer, t1 panics, and t2 — the panel's second and last
// consumer, whose release would normally free the buffer — never runs.
func TestAbortReleasesSharedPanels(t *testing.T) {
	const n = 96 // comfortably past the packed-path threshold
	mk := func() kernel.View {
		v := kernel.View{Rows: n, Cols: n, Stride: n, Data: make([]float64, n*n)}
		for i := range v.Data {
			v.Data[i] = float64(i%7) - 3
		}
		return v
	}
	c, a, b := mk(), mk(), mk()

	base := kernel.ReadPanelCacheStats()

	p := kernel.NewSharedBPanel(2)
	if p == nil {
		t.Fatal("NewSharedBPanel returned nil for uses=2")
	}
	g := &dag.Graph{Name: "abort-panel", Workers: 1, Panels: []*kernel.SharedPanel{p}}
	t0 := &dag.Task{ID: 0, Kind: dag.S, Run: func() { kernel.GemmShared(c, a, b, p) }}
	t1 := &dag.Task{ID: 1, Kind: dag.S, NumDeps: 1, Run: func() { panic("injected numerical failure") }}
	t2 := &dag.Task{ID: 2, Kind: dag.S, NumDeps: 1, Run: func() { kernel.GemmShared(c, a, b, p) }}
	t0.Outs = []int32{t1.ID}
	t1.Outs = []int32{t2.ID}
	g.Tasks = []*dag.Task{t0, t1, t2}

	_, err := Run(g, sched.NewDynamic(), Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "injected numerical failure") {
		t.Fatalf("Run error = %v, want the injected task panic", err)
	}

	after := kernel.ReadPanelCacheStats()
	if after.Packs != base.Packs+1 {
		t.Fatalf("Packs = %d, want %d: t0 did not take the shared packed path", after.Packs, base.Packs+1)
	}
	if after.UsedBytes != base.UsedBytes {
		t.Fatalf("UsedBytes = %d after aborted run, want baseline %d: panel buffer leaked", after.UsedBytes, base.UsedBytes)
	}
}
