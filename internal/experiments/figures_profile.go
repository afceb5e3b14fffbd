package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
)

func init() {
	register("fig1", "Profile of CALU with static scheduling, 16 cores of the AMD machine",
		func(scale float64, seed int64) (*Table, error) {
			return profileExperiment(profileConfig{
				policy: core.ScheduleStatic, dratio: 0, kind: layout.TwoLevel,
				n: 2500, workers: 16, scale: scale, seed: seed,
				note: "Paper: even the statically optimized code shows pockets of idle time (white " +
					"space) with no regular pattern - transient performance variation that static " +
					"tuning cannot predict.",
			})
		})
	register("fig4", "First steps of a 5000x5000 factorization under static(20% dynamic)",
		func(scale float64, seed int64) (*Table, error) {
			return profileExperiment(profileConfig{
				policy: core.ScheduleHybrid, dratio: 0.20, kind: layout.BCL,
				n: 5000, workers: 16, scale: scale, seed: seed, firstSteps: true,
				note: "Paper: threads that finish the panel factorization early execute tasks from " +
					"the dynamic section instead of idling - almost no idle time remains.",
			})
		})
	register("fig14", "Profile of CALU dynamic with column-major layout, AMD machine",
		func(scale float64, seed int64) (*Table, error) {
			return profileExperiment(profileConfig{
				policy: core.ScheduleDynamic, dratio: 1, kind: layout.CM,
				n: 2500, workers: 16, scale: scale, seed: seed,
				note: "Paper: 90% of threads become idle after only ~60% of the total factorization " +
					"time, versus 80-90% for the other variants.",
			})
		})
	register("fig15", "Profile of CALU static(10% dynamic) with 2l-BL, AMD machine, 16 cores",
		func(scale float64, seed int64) (*Table, error) {
			return profileExperiment(profileConfig{
				policy: core.ScheduleHybrid, dratio: 0.10, kind: layout.TwoLevel,
				n: 2500, workers: 16, scale: scale, seed: seed,
				note: "Paper: a small percentage of dynamic work keeps the cores busy and reduces " +
					"the idle time drastically compared with Figure 1.",
			})
		})
}

type profileConfig struct {
	policy     core.Scheduler
	dratio     float64
	kind       layout.Kind
	n, workers int
	scale      float64
	seed       int64
	firstSteps bool
	note       string
}

// profileExperiment renders a timeline figure (Figures 1, 4, 14, 15) as
// an ASCII Gantt chart plus the idle statistics the paper reads off it.
func profileExperiment(cfg profileConfig) (*Table, error) {
	b := blockFor(cfg.n)
	n := scaleN(cfg.n, cfg.scale, b)
	m := sim.AMDOpteron48()
	tr := trace.New(cfg.workers)
	res, err := simCALU(m, cfg.workers, n, b, core.Options{
		Layout: cfg.kind, Scheduler: cfg.policy, DynamicRatio: cfg.dratio, Trace: tr,
	}, cfg.seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("%s %s on %s, n=%d, %d workers", cfg.policy, cfg.kind, m.Name, n, cfg.workers),
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"makespan (s)", fmt.Sprintf("%.4f", res.Makespan)},
			{"Gflop/s (effective)", gf(effGflops(n, res.Makespan))},
			{"idle fraction", fmt.Sprintf("%.1f%%", 100*tr.IdleFraction())},
			{"90% of workers permanently idle at", fmt.Sprintf("%.0f%% of makespan", 100*tr.PermanentIdlePoint(0.9))},
			{"occupancy stays below 25% after", fmt.Sprintf("%.0f%% of makespan", 100*tr.LowOccupancyPoint(0.25))},
			{"dynamic dequeues", fmt.Sprintf("%d", res.Counters.DequeueDynamic)},
			{"migrated tasks", fmt.Sprintf("%d", res.Counters.Mismatches)},
		},
	}
	width := 150
	if cfg.firstSteps {
		// Figure 4 zooms on the first steps: widen the early region by
		// rendering only the first quarter of the timeline.
		cut := res.Makespan / 4
		sub := trace.New(cfg.workers)
		for w := 0; w < cfg.workers; w++ {
			for _, s := range tr.Spans[w] {
				if s.Start < cut {
					end := s.End
					if end > cut {
						end = cut
					}
					sub.Add(w, s.TaskID, s.Label, s.Start, end)
				}
			}
		}
		tr = sub
	}
	t.Notes = "P=panel preprocessing  F=pivot-block factor  L/U=panel factors  S=update  .=idle\n" +
		tr.Gantt(width) + cfg.note
	return t, nil
}
