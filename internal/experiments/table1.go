package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/mat"
)

func init() {
	register("table1", "Design space: layout x scheduling, validated numerically (real execution)",
		runTable1)
}

// runTable1 exercises every cell of the paper's Table 1 with a real
// factorization on actual data (goroutine runtime, this machine) and
// reports the backward error of each — the coverage proof that all
// seven configurations are implemented and correct, not just modeled.
func runTable1(scale float64, seed int64) (*Table, error) {
	n := scaleN(1200, scale, 100)
	if n > 1200 {
		n = 1200 // keep the real-arithmetic run fast at scale >= 1
	}
	b := 50
	rng := rand.New(rand.NewSource(seed))
	a := mat.Random(n, n, rng)

	type cell struct {
		kind   layout.Kind
		sched  core.Scheduler
		dratio float64
		label  string
	}
	cells := []cell{
		{layout.BCL, core.ScheduleStatic, 0, "BCL / static"},
		{layout.BCL, core.ScheduleDynamic, 1, "BCL / dynamic"},
		{layout.BCL, core.ScheduleHybrid, 0.10, "BCL / static(10% dynamic)"},
		{layout.TwoLevel, core.ScheduleStatic, 0, "2l-BL / static"},
		{layout.TwoLevel, core.ScheduleDynamic, 1, "2l-BL / dynamic"},
		{layout.TwoLevel, core.ScheduleHybrid, 0.10, "2l-BL / static(10% dynamic)"},
		{layout.CM, core.ScheduleDynamic, 1, "CM / dynamic"},
	}
	t := &Table{
		Title:   fmt.Sprintf("all Table 1 cells on a real %dx%d system (b=%d, 4 workers)", n, n, b),
		Columns: []string{"configuration", "tasks", "static", "dynamic", "residual ||PA-LU||", "ok"},
	}
	for _, c := range cells {
		opt := core.Options{
			Layout: c.kind, Block: b, Workers: 4,
			Scheduler: c.sched, DynamicRatio: c.dratio,
		}
		f, err := core.Factor(a, opt)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", c.label, err)
		}
		// The task columns count the paper's per-block graph, whose
		// split Algorithm 1 defines. The runtime ran it with each step's
		// static far-column updates merged per owner (dag.BuildCALU),
		// which moves no result bit.
		s := layout.NewShape(c.kind, n, n, b, layout.NewGrid(opt.Workers))
		_, nb := s.Blocks()
		st := dag.NewCALU(s, dag.CALUOptions{NstaticCols: opt.NstaticCols(nb), Group: opt.GroupSize()}).ComputeStats()
		r := core.Residual(a, f)
		ok := "yes"
		if r > 1e-9 {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			c.label,
			fmt.Sprintf("%d", st.Total),
			fmt.Sprintf("%d", st.StaticTask),
			fmt.Sprintf("%d", st.DynTask),
			fmt.Sprintf("%.2e", r),
			ok,
		})
	}
	t.Notes = "Every cell of the paper's design space factorizes the same matrix and is verified\n" +
		"against PA = LU. The hybrid rows show the Nstatic split of Algorithm 1."
	return t, nil
}
