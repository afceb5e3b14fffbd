package sim

import (
	"testing"

	"repro/internal/layout"
	"repro/internal/sched"
)

// TestSimGolden pins the simulator's output under the three queue
// policies on three machine/layout configurations. The BCL and 2l-BL
// constants were recorded at the last commit where internal/sim drove
// purpose-built serial policy adapters; the simulator now drives the
// runtime's own policy objects from its event loop, and must still
// reproduce every makespan, accounting bucket and counter bit for bit.
// The CM constants (the layout of fig14's dynamic-CM row and the GEPP
// baseline) were recorded at the commit before the graph builders read a
// layout.Shape instead of a layout.Layout.
func TestSimGolden(t *testing.T) {
	type config struct {
		name     string
		machine  Machine
		workers  int
		kind     layout.Kind
		n, b     int
		group    int
		seed     int64
		expected map[string]Result
	}
	configs := []config{
		{"amd48/bcl", AMDOpteron48(), 24, layout.BCL, 2000, 100, 3, 5, map[string]Result{
			"static": {Makespan: 0.07323656060594101, BusyTime: 0.9444360191348339, OverheadTime: 8.220000000000158e-05, NoiseTime: 0.00552828583977641, IdleTime: 0.8076309495679739,
				Counters: sched.Counters{DequeueStatic: 1644}},
			"dynamic": {Makespan: 0.07408252101596834, BusyTime: 1.007142228588024, OverheadTime: 0.2164713351574411, NoiseTime: 0.006323202903585378, IdleTime: 0.5480437377341895,
				Counters: sched.Counters{DequeueDynamic: 1644, Mismatches: 1580}},
			"hybrid": {Makespan: 0.07996903188264023, BusyTime: 0.9490050645472528, OverheadTime: 0.021450750000000563, NoiseTime: 0.00523713009302239, IdleTime: 0.94356382054309,
				Counters: sched.Counters{DequeueStatic: 1417, DequeueDynamic: 227, Mismatches: 207}},
		}},
		{"intel16/2l", IntelXeon16(), 16, layout.TwoLevel, 1600, 80, 1, 3, map[string]Result{
			"static": {Makespan: 0.0635507767794143, BusyTime: 0.7531025455637931, OverheadTime: 0.0001499000000000032, NoiseTime: 0.003967925945797856, IdleTime: 0.2595920569610379,
				Counters: sched.Counters{DequeueStatic: 2998}},
			"dynamic": {Makespan: 0.0570926025757239, BusyTime: 0.8017992096668812, OverheadTime: 0.01583970375777518, NoiseTime: 0.0038245725819910877, IdleTime: 0.09201815520493486,
				Counters: sched.Counters{DequeueDynamic: 2998, Mismatches: 2828}},
			"hybrid": {Makespan: 0.05777670368474713, BusyTime: 0.7594359227301701, OverheadTime: 0.002193490000000426, NoiseTime: 0.003631900294717775, IdleTime: 0.15916594593106578,
				Counters: sched.Counters{DequeueStatic: 2575, DequeueDynamic: 423, Mismatches: 391}},
		}},
		{"amd48/cm", AMDOpteron48(), 12, layout.CM, 1200, 100, 3, 7, map[string]Result{
			"static": {Makespan: 0.08183043456080806, BusyTime: 0.37230318487157205, OverheadTime: 1.9500000000000054e-05, NoiseTime: 0.003403346971813391, IdleTime: 0.6062391828863112,
				Counters: sched.Counters{DequeueStatic: 390}},
			"dynamic": {Makespan: 0.09063747865440182, BusyTime: 0.4232620499175551, OverheadTime: 0.11998922285041094, NoiseTime: 0.003992181042132409, IdleTime: 0.5404062900427234,
				Counters: sched.Counters{DequeueDynamic: 390, Mismatches: 359}},
			"hybrid": {Makespan: 0.08375222685673063, BusyTime: 0.3754456957434621, OverheadTime: 0.018571149999999988, NoiseTime: 0.003701696461422043, IdleTime: 0.6073081800758835,
				Counters: sched.Counters{DequeueStatic: 351, DequeueDynamic: 39, Mismatches: 39}},
		}},
	}
	for _, c := range configs {
		nb := c.n / c.b
		for _, p := range []struct {
			pol     sched.Policy
			nstatic int
		}{
			{sched.NewStatic(), nb},
			{sched.NewDynamic(), 0},
			{sched.NewHybrid(), nb - nb/10}, // hybrid(10% dynamic)
		} {
			tag := c.name + "/" + p.pol.Name()
			got, err := FactorSim(c.n, c.n, c.b, p.nstatic, c.group, Config{
				Machine: c.machine, Workers: c.workers, Layout: c.kind, Policy: p.pol, Seed: c.seed,
			})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			want := c.expected[p.pol.Name()]
			if got.Makespan != want.Makespan || got.BusyTime != want.BusyTime ||
				got.OverheadTime != want.OverheadTime || got.NoiseTime != want.NoiseTime ||
				got.IdleTime != want.IdleTime {
				t.Errorf("%s: makespan/busy/overhead/noise/idle = %v/%v/%v/%v/%v, want %v/%v/%v/%v/%v", tag,
					got.Makespan, got.BusyTime, got.OverheadTime, got.NoiseTime, got.IdleTime,
					want.Makespan, want.BusyTime, want.OverheadTime, want.NoiseTime, want.IdleTime)
			}
			if got.Counters != want.Counters {
				t.Errorf("%s: counters %+v, want %+v", tag, got.Counters, want.Counters)
			}
		}
	}
}
