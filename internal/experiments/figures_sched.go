package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sim"
)

func init() {
	register("fig6", "CALU static/dynamic sweep, Intel 16-core, block cyclic layout (BCL)",
		func(scale float64, seed int64) (*Table, error) {
			return dratioSweep(sim.IntelXeon16(), 16, []int{2500, 5000, 10000}, layout.BCL, scale, seed,
				"Paper: hybrid beats both pure strategies; static is the worst on this machine "+
					"(static(10% dynamic) ~8.2% over static, ~1.4% over dynamic at n=5000); "+
					"the exact dynamic percentage matters little.")
		})
	register("fig7", "CALU static/dynamic sweep, AMD 48-core, block cyclic layout (BCL)",
		func(scale float64, seed int64) (*Table, error) {
			return dratioSweep(sim.AMDOpteron48(), 48, []int{2500, 5000, 10000}, layout.BCL, scale, seed,
				"Paper: on the NUMA machine locality matters; the best performance comes from "+
					"static plus a small (10-20%) dynamic share.")
		})
	register("fig8", "Improvement of hybrid over static & dynamic, AMD 24/48 cores, BCL",
		func(scale float64, seed int64) (*Table, error) {
			return improvement(layout.BCL, scale, seed,
				"Paper: best improvement at M=N=4000 on 48 cores (+30.3% vs static, +10.2% vs dynamic); "+
					"n=10000: +6.9% vs static, +8.4% vs dynamic; on 24 cores static(20%) is slightly "+
					"faster than static(10%).")
		})
	register("fig9", "CALU static/dynamic sweep, Intel 16-core, two-level block layout (2l-BL)",
		func(scale float64, seed int64) (*Table, error) {
			return dratioSweep(sim.IntelXeon16(), 16, []int{2500, 4000, 5000, 10000}, layout.TwoLevel, scale, seed,
				"Paper: same behaviour as BCL on this machine; static least efficient; best case "+
					"static(10% dynamic) at n=4000 is +10.6% over static, +1.7% over dynamic.")
		})
	register("fig10", "CALU static/dynamic sweep, AMD 48-core, two-level block layout (2l-BL)",
		func(scale float64, seed int64) (*Table, error) {
			return dratioSweep(sim.AMDOpteron48(), 48, []int{2500, 4000, 5000, 10000}, layout.TwoLevel, scale, seed,
				"Paper: fully dynamic is the least efficient by far — tiles are not reused across "+
					"sockets, the dequeue overhead grows with the block count, and no grouping is "+
					"possible; increasing the dynamic share does not help.")
		})
	register("fig11", "Improvement of hybrid over static & dynamic, AMD 24/48 cores, 2l-BL",
		func(scale float64, seed int64) (*Table, error) {
			return improvement(layout.TwoLevel, scale, seed,
				"Paper: best case static(10% dynamic) is +5.9% over static and +64.9% over dynamic "+
					"on 48 cores; on 24 cores up to +10% / +16%.")
		})
	register("fig12", "Impact of data layout and scheduling, Intel 16-core summary",
		func(scale float64, seed int64) (*Table, error) {
			return layoutSummary(sim.IntelXeon16(), 16, scale, seed,
				"Paper: CALU static(10% dynamic) with BCL reaches 67.4 Gflop/s = 79% of peak at "+
					"n=15000; 2l-BL is ahead for small n, BCL wins as n grows (grouped BLAS-3).")
		})
	register("fig13", "Impact of data layout and scheduling, AMD 48-core summary",
		func(scale float64, seed int64) (*Table, error) {
			return layoutSummary(sim.AMDOpteron48(), 48, scale, seed,
				"Paper: CALU static(10% dynamic) with BCL reaches 264.1 Gflop/s = 49% of peak at "+
					"n=15000; fully dynamic scheduling is highly inefficient on this NUMA machine; "+
					"dynamic on column-major storage is the worst configuration.")
		})
}

var sweepRatios = []struct {
	name   string
	policy core.Scheduler
	dratio float64
}{
	{"static", core.ScheduleStatic, 0},
	{"static(10% dyn)", core.ScheduleHybrid, 0.10},
	{"static(25% dyn)", core.ScheduleHybrid, 0.25},
	{"static(50% dyn)", core.ScheduleHybrid, 0.50},
	{"static(75% dyn)", core.ScheduleHybrid, 0.75},
	{"dynamic", core.ScheduleDynamic, 1},
}

// dratioSweep generates Figures 6, 7, 9 and 10: Gflop/s as the dynamic
// percentage varies from 0 (fully static) to 100 (fully dynamic).
func dratioSweep(m sim.Machine, workers int, sizes []int, kind layout.Kind, scale float64, seed int64, note string) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("%s, %d workers, %s layout (Gflop/s)", m.Name, workers, kind),
		Columns: []string{"n"},
	}
	for _, s := range sweepRatios {
		t.Columns = append(t.Columns, s.name)
	}
	for _, n0 := range sizes {
		b := blockFor(n0)
		n := scaleN(n0, scale, b)
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range sweepRatios {
			res, err := simCALU(m, workers, n, b, core.Options{Layout: kind, Scheduler: s.policy, DynamicRatio: s.dratio}, seed)
			if err != nil {
				return nil, err
			}
			row = append(row, gf(effGflops(n, res.Makespan)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = note
	return t, nil
}

// improvement generates Figures 8 and 11: the percentage improvement of
// static(10% dynamic) and static(20% dynamic) over fully static and
// fully dynamic scheduling, on 24 and on 48 cores of the AMD machine.
func improvement(kind layout.Kind, scale float64, seed int64, note string) (*Table, error) {
	m := sim.AMDOpteron48()
	t := &Table{
		Title: fmt.Sprintf("hybrid improvement over pure strategies, %s layout", kind),
		Columns: []string{"cores", "n",
			"h10 vs static", "h10 vs dynamic", "h20 vs static", "h20 vs dynamic"},
	}
	for _, workers := range []int{24, 48} {
		for _, n0 := range []int{2500, 4000, 5000, 10000} {
			b := blockFor(n0)
			n := scaleN(n0, scale, b)
			st, err := simCALU(m, workers, n, b, core.Options{Layout: kind, Scheduler: core.ScheduleStatic}, seed)
			if err != nil {
				return nil, err
			}
			dy, err := simCALU(m, workers, n, b, core.Options{Layout: kind, Scheduler: core.ScheduleDynamic, DynamicRatio: 1}, seed)
			if err != nil {
				return nil, err
			}
			h10, err := simCALU(m, workers, n, b, core.Options{Layout: kind, DynamicRatio: 0.10}, seed)
			if err != nil {
				return nil, err
			}
			h20, err := simCALU(m, workers, n, b, core.Options{Layout: kind, DynamicRatio: 0.20}, seed)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", workers), fmt.Sprintf("%d", n),
				pct(st.Makespan/h10.Makespan - 1), pct(dy.Makespan/h10.Makespan - 1),
				pct(st.Makespan/h20.Makespan - 1), pct(dy.Makespan/h20.Makespan - 1),
			})
		}
	}
	t.Notes = note
	return t, nil
}

// layoutSummary generates Figures 12 and 13: every layout x scheduling
// combination of Table 1 across matrix sizes.
func layoutSummary(m sim.Machine, workers int, scale float64, seed int64, note string) (*Table, error) {
	combos := []struct {
		label  string
		kind   layout.Kind
		policy core.Scheduler
		dratio float64
	}{
		{"BCL static", layout.BCL, core.ScheduleStatic, 0},
		{"BCL h10", layout.BCL, core.ScheduleHybrid, 0.10},
		{"BCL dynamic", layout.BCL, core.ScheduleDynamic, 1},
		{"2l-BL static", layout.TwoLevel, core.ScheduleStatic, 0},
		{"2l-BL h10", layout.TwoLevel, core.ScheduleHybrid, 0.10},
		{"2l-BL dynamic", layout.TwoLevel, core.ScheduleDynamic, 1},
		{"CM dynamic", layout.CM, core.ScheduleDynamic, 1},
	}
	t := &Table{
		Title:   fmt.Sprintf("%s, %d workers: layout x scheduling (Gflop/s)", m.Name, workers),
		Columns: []string{"n"},
	}
	for _, c := range combos {
		t.Columns = append(t.Columns, c.label)
	}
	peak := m.CoreGflops * float64(workers)
	best := 0.0
	for _, n0 := range []int{2500, 5000, 10000, 15000} {
		b := blockFor(n0)
		n := scaleN(n0, scale, b)
		row := []string{fmt.Sprintf("%d", n)}
		for _, c := range combos {
			res, err := simCALU(m, workers, n, b, core.Options{Layout: c.kind, Scheduler: c.policy, DynamicRatio: c.dratio}, seed)
			if err != nil {
				return nil, err
			}
			g := effGflops(n, res.Makespan)
			row = append(row, gf(g))
			if g > best {
				best = g
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = fmt.Sprintf("best %.1f Gflop/s = %.0f%% of the %.1f Gflop/s peak\n%s",
		best, 100*best/peak, peak, note)
	return t, nil
}
