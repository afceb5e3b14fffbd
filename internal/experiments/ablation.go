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
	register("ablation", "Design-choice ablations: grouping, look-ahead, chunk count",
		runAblation)
	register("help", "Help-tier ablation: idle workers take a lagging owner's pinned tasks, eagerly",
		runHelpAblation)
}

// runAblation quantifies the individual design choices the paper
// motivates but does not isolate: the k=3 grouped BLAS-3 updates
// (section 3), the look-ahead in the baseline's panel (section 2) and
// the tournament fan-out.
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
	hybrid := core.Options{Layout: layout.BCL, DynamicRatio: 0.10}
	ref, err := simCALU(m, workers, n, b, hybrid, seed)
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
	ungrouped, err := sim.FactorSim(n, n, b, hybrid.NstaticCols(nb), 1, sim.Config{
		Machine: m, Workers: workers, Layout: layout.BCL,
		Policy: sched.NewHybrid(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	add("grouping disabled (k=1)", ungrouped.Makespan)

	// --- wider tournament fan-out: one leaf per block row.
	grid := layout.NewGrid(workers)
	wide, err := sim.Run(dag.NewCALU(
		layout.NewShape(layout.BCL, n, n, b, grid),
		dag.CALUOptions{NstaticCols: hybrid.NstaticCols(nb), Group: 3, Chunks: workers},
	).Graph, sim.Config{
		Machine: m, Workers: workers, Layout: layout.BCL,
		Policy: sched.NewHybrid(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	add(fmt.Sprintf("tournament fan-out %d leaves", workers), wide.Makespan)

	// --- the baseline's missing look-ahead, isolated on the GEPP DAG.
	cm := layout.NewShape(layout.CM, n, n, b, grid)
	noLA, err := sim.Run(dag.NewGEPP(cm, dag.GEPPOptions{}).Graph, sim.Config{
		Machine: m, Workers: workers, Layout: layout.CM, Policy: sched.NewDynamic(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	la, err := sim.Run(dag.NewGEPP(cm, dag.GEPPOptions{Lookahead: true}).Graph, sim.Config{
		Machine: m, Workers: workers, Layout: layout.CM, Policy: sched.NewDynamic(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	add("GEPP baseline, fork-join (no look-ahead)", noLA.Makespan)
	add("GEPP baseline with look-ahead", la.Makespan)

	t.Notes = "Grouping pays once per-step update work dominates (the paper's n=5000);\n" +
		"look-ahead alone does not rescue the sequential-panel baseline."
	return t, nil
}

// runHelpAblation measures the third dispatch tier (sched.Policy.Help)
// on the two machine models, where this repository's 2-vCPU container
// cannot: hybrid(10%) against the same run with sim.Config.Help, with
// and without the machines' noise process, at a size with idle time to
// fill and at one without.
func runHelpAblation(scale float64, seed int64) (*Table, error) {
	b := 100
	t := &Table{
		Title: fmt.Sprintf("hybrid(10%%) with and without the help tier, b=%d (effective Gflop/s)", b),
		Columns: []string{"machine / layout / workers", "n", "noise", "hybrid", "+help", "change",
			"helped tasks", "overhead s", "+help overhead s"},
	}
	for _, c := range []struct {
		m       sim.Machine
		workers int
		kind    layout.Kind
	}{
		{sim.AMDOpteron48(), 24, layout.BCL},
		{sim.IntelXeon16(), 16, layout.TwoLevel},
	} {
		for _, size := range []int{2000, 5000} {
			n := scaleN(size, scale, b)
			for _, quiet := range []bool{false, true} {
				m, noise := c.m, "on"
				if quiet {
					m, noise = c.m.Quiet(), "off"
				}
				opt := core.Options{Layout: c.kind, DynamicRatio: 0.10}
				var res [2]sim.Result
				for i, help := range []bool{false, true} {
					var err error
					res[i], err = sim.FactorSim(n, n, b, opt.NstaticCols(n/b), opt.GroupSize(), sim.Config{
						Machine: m, Workers: c.workers, Layout: c.kind,
						Policy: opt.Policy(), Help: help, Seed: seed,
					})
					if err != nil {
						return nil, err
					}
				}
				base, helped := effGflops(n, res[0].Makespan), effGflops(n, res[1].Makespan)
				cn := res[1].Counters
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%s / %s / %d", c.m.Name, c.kind, c.workers), fmt.Sprintf("%d", n), noise,
					gf(base), gf(helped), pct(helped/base - 1),
					fmt.Sprintf("%d of %d", cn.Steals, cn.DequeueStatic+cn.DequeueDynamic+cn.Steals),
					fmt.Sprintf("%.3f", res[0].OverheadTime), fmt.Sprintf("%.3f", res[1].OverheadTime),
				})
			}
		}
	}
	t.Notes = "Help trades idle time for migration. The simulator asks it for a worker that is still\n" +
		"idle once every idle worker has had its own pop, the closest it gets to the runtime's\n" +
		"parking point: the gain is where the idle time is (n small for the machine) and a run\n" +
		"with nothing to fill pays nothing. Asked inside Next instead - so that a worker polled\n" +
		"first takes what its idle owner was about to pop - the same tier read -4.2% on\n" +
		"amd48/BCL/24 at n=2000 (587 of 1644 tasks helped, overhead 0.021 -> 0.087 s) and +9.0%\n" +
		"on intel16/2l-BL/16; the issue's prototype read -4% (724 helped) and +7%. That is why\n" +
		"internal/rt asks Help only when a worker is about to park."
	return t, nil
}
