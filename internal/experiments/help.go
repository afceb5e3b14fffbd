package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sim"
)

func init() {
	register("help", "Help-tier ablation: idle workers take a lagging owner's pinned tasks, eagerly",
		runHelpAblation)
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
