package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/sim"
)

func init() {
	register("ablation", "Design-choice ablations: grouping, look-ahead, work stealing, chunk count",
		runAblation)
}

// runAblation quantifies the individual design choices the paper
// motivates but does not isolate: the k=3 grouped BLAS-3 updates
// (section 3), the look-ahead in the baseline's panel (section 2), the
// DFS-ordered shared queue versus randomized work stealing (section 8),
// and the tournament fan-out.
func runAblation(scale float64, seed int64) (*Table, error) {
	m := sim.AMDOpteron48()
	workers := 48
	n := scaleN(5000, scale, 100)
	b := 100
	nb := n / b
	t := &Table{
		Title:   fmt.Sprintf("AMD 48-core model, n=%d, b=%d (effective Gflop/s)", n, b),
		Columns: []string{"variant", "Gflop/s", "vs reference"},
	}
	ref, err := simCALU(m, workers, n, b, core.Options{Layout: layout.BCL, DynamicRatio: 0.10, Seed: seed})
	if err != nil {
		return nil, err
	}
	refG := effGflops(n, ref.Makespan)
	add := func(label string, ms float64) {
		g := effGflops(n, ms)
		t.Rows = append(t.Rows, []string{label, gf(g), pct(g/refG - 1)})
	}
	add("CALU hybrid(10%), BCL, k=3 (reference)", ref.Makespan)

	// --- grouping off: k=1.
	ungrouped, err := simCALU(m, workers, n, b, core.Options{Layout: layout.BCL, DynamicRatio: 0.10, Group: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	add("grouping disabled (k=1)", ungrouped.Makespan)

	// --- work stealing instead of the hybrid policy (section 8).
	ws, err := simCALU(m, workers, n, b, core.Options{Layout: layout.BCL, Scheduler: core.ScheduleWorkStealing, Seed: seed})
	if err != nil {
		return nil, err
	}
	add("randomized work stealing", ws.Makespan)

	// --- wider tournament fan-out: one leaf per block row.
	wide, err := sim.Run(dag.BuildCALU(
		sim.NewPhantomLayout(layout.BCL, n, n, b, layout.NewGrid(workers)),
		dag.CALUOptions{NstaticCols: core.Options{DynamicRatio: 0.10}.NstaticCols(nb), Group: 3, Chunks: workers, SimOnly: true},
	).Graph, sim.Config{
		Machine: m, Workers: workers, Layout: layout.BCL,
		Policy: sched.NewHybrid(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	add(fmt.Sprintf("tournament fan-out %d leaves", workers), wide.Makespan)

	// --- the baseline's missing look-ahead, isolated on the GEPP DAG.
	ph := sim.NewPhantomLayout(layout.CM, n, n, b, layout.NewGrid(workers))
	noLA, err := sim.Run(dag.BuildGEPP(ph, dag.GEPPOptions{}).Graph, sim.Config{
		Machine: m, Workers: workers, Layout: layout.CM, Policy: sched.NewDynamic(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	ph2 := sim.NewPhantomLayout(layout.CM, n, n, b, layout.NewGrid(workers))
	la, err := sim.Run(dag.BuildGEPP(ph2, dag.GEPPOptions{Lookahead: true}).Graph, sim.Config{
		Machine: m, Workers: workers, Layout: layout.CM, Policy: sched.NewDynamic(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	add("GEPP baseline, fork-join (no look-ahead)", noLA.Makespan)
	add("GEPP baseline with look-ahead", la.Makespan)

	t.Notes = "Grouping and the DFS-ordered hybrid queue are the load-bearing choices; work\n" +
		"stealing loses the critical path (section 8's argument); look-ahead alone does\n" +
		"not rescue the sequential-panel baseline. The work-stealing row simulates the\n" +
		"policy the real runtime runs: a readied task goes on the readying worker's deque."
	return t, nil
}
