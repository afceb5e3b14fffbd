package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/trace"
)

func quietConfig(kind layout.Kind, pol sched.Policy, workers int) Config {
	return Config{Machine: AMDOpteron48().Quiet(), Workers: workers, Layout: kind, Policy: pol, Seed: 1}
}

func TestMachineValidate(t *testing.T) {
	if err := IntelXeon16().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := AMDOpteron48().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Machine{Sockets: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestMachineTopology(t *testing.T) {
	m := AMDOpteron48()
	if m.Cores() != 48 {
		t.Fatalf("cores %d", m.Cores())
	}
	if m.Socket(0) != 0 || m.Socket(5) != 0 || m.Socket(6) != 1 || m.Socket(47) != 7 {
		t.Fatal("socket mapping wrong")
	}
	if IntelXeon16().Cores() != 16 {
		t.Fatal("intel core count")
	}
}

func TestPeakRatesMatchPaper(t *testing.T) {
	if g := IntelXeon16().CoreGflops * 16; math.Abs(g-85.3) > 1e-9 {
		t.Fatalf("intel peak %g want 85.3", g)
	}
	if g := AMDOpteron48().CoreGflops * 48; math.Abs(g-539.5) > 1e-9 {
		t.Fatalf("amd peak %g want 539.5", g)
	}
}

func TestSimConservation(t *testing.T) {
	res, err := FactorSim(1600, 1600, 100, 16, 3, quietConfig(layout.BCL, sched.NewStatic(), 16))
	if err != nil {
		t.Fatal(err)
	}
	total := res.BusyTime + res.OverheadTime + res.NoiseTime + res.IdleTime
	want := res.Makespan * 16
	if math.Abs(total-want)/want > 1e-9 {
		t.Fatalf("accounting broken: %g vs %g", total, want)
	}
	if res.NoiseTime != 0 {
		t.Fatal("quiet machine produced noise")
	}
}

func TestSimDeterministic(t *testing.T) {
	cfg := Config{Machine: AMDOpteron48(), Workers: 24, Layout: layout.BCL, Policy: sched.NewHybrid(), Seed: 5}
	a, err := FactorSim(2000, 2000, 100, 18, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := Config{Machine: AMDOpteron48(), Workers: 24, Layout: layout.BCL, Policy: sched.NewHybrid(), Seed: 5}
	b, err := FactorSim(2000, 2000, 100, 18, 3, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("same seed diverged: %g vs %g", a.Makespan, b.Makespan)
	}
}

func TestSimSeedChangesNoise(t *testing.T) {
	r1, err := FactorSim(1600, 1600, 100, 16, 3, Config{Machine: AMDOpteron48(), Workers: 16, Layout: layout.BCL, Policy: sched.NewStatic(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := FactorSim(1600, 1600, 100, 16, 3, Config{Machine: AMDOpteron48(), Workers: 16, Layout: layout.BCL, Policy: sched.NewStatic(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan == r2.Makespan {
		t.Fatal("different noise seeds should perturb the makespan")
	}
}

func TestStaticRunsEntirelyLocal(t *testing.T) {
	res, err := FactorSim(1600, 1600, 100, 16, 3, quietConfig(layout.BCL, sched.NewStatic(), 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Mismatches != 0 {
		t.Fatalf("static run migrated %d tasks", res.Counters.Mismatches)
	}
	if res.Counters.DequeueDynamic != 0 {
		t.Fatal("static run touched the shared queue")
	}
}

func TestDynamicPaysOverheadStaticDoesNot(t *testing.T) {
	st, err := FactorSim(2400, 2400, 100, 24, 3, quietConfig(layout.BCL, sched.NewStatic(), 24))
	if err != nil {
		t.Fatal(err)
	}
	dy, err := FactorSim(2400, 2400, 100, 0, 3, quietConfig(layout.BCL, sched.NewDynamic(), 24))
	if err != nil {
		t.Fatal(err)
	}
	if dy.OverheadTime <= st.OverheadTime {
		t.Fatalf("dynamic overhead %g not above static %g", dy.OverheadTime, st.OverheadTime)
	}
	if dy.IdleTime >= st.IdleTime {
		t.Fatalf("dynamic idle %g not below static %g", dy.IdleTime, st.IdleTime)
	}
}

// TestHelpFillsIdleTime: Config.Help is off unless asked for, and when
// asked for it turns hybrid idle time into helped (migrated) tasks; the
// static policy has no such tier whatever the flag says.
func TestHelpFillsIdleTime(t *testing.T) {
	run := func(pol sched.Policy, nstatic int, help bool) Result {
		cfg := quietConfig(layout.BCL, pol, 24)
		cfg.Help = help
		res, err := FactorSim(2000, 2000, 100, nstatic, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, helped := run(sched.NewHybrid(), 18, false), run(sched.NewHybrid(), 18, true)
	if plain.Counters.Steals != 0 {
		t.Fatalf("hybrid helped %d tasks with Help off", plain.Counters.Steals)
	}
	hc, pc := helped.Counters, plain.Counters
	if hc.Steals == 0 || hc.DequeueStatic+hc.Steals != pc.DequeueStatic || hc.DequeueDynamic != pc.DequeueDynamic {
		t.Fatalf("helped counters %+v against %+v: helps must come out of the owner-queue pops", hc, pc)
	}
	if helped.IdleTime >= plain.IdleTime || helped.OverheadTime <= plain.OverheadTime {
		t.Fatalf("help must trade idle time (%g -> %g) for migration (%g -> %g)",
			plain.IdleTime, helped.IdleTime, plain.OverheadTime, helped.OverheadTime)
	}
	if st := run(sched.NewStatic(), 20, true); st.Counters.Steals != 0 || st.Counters.Mismatches != 0 {
		t.Fatalf("static run helped: %+v", st.Counters)
	}
}

// The headline result: on the NUMA machine, hybrid with a small dynamic
// share beats both pure strategies (paper section 5.1, Figures 7/8).
func TestHybridBeatsBothOnNUMA(t *testing.T) {
	n, b, w := 6000, 100, 48
	nb := n / b
	st, err := FactorSim(n, n, b, nb, 3, Config{Machine: AMDOpteron48(), Workers: w, Layout: layout.BCL, Policy: sched.NewStatic(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dy, err := FactorSim(n, n, b, 0, 3, Config{Machine: AMDOpteron48(), Workers: w, Layout: layout.BCL, Policy: sched.NewDynamic(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := FactorSim(n, n, b, nb-nb/10, 3, Config{Machine: AMDOpteron48(), Workers: w, Layout: layout.BCL, Policy: sched.NewHybrid(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Gflops <= st.Gflops {
		t.Fatalf("hybrid %g not above static %g", hy.Gflops, st.Gflops)
	}
	if hy.Gflops <= dy.Gflops {
		t.Fatalf("hybrid %g not above dynamic %g", hy.Gflops, dy.Gflops)
	}
}

// On the low-latency Intel machine, dynamic is nearly free and static
// trails (paper Figure 6).
func TestIntelStaticTrailsDynamic(t *testing.T) {
	n, b := 5000, 100
	nb := n / b
	st, err := FactorSim(n, n, b, nb, 3, Config{Machine: IntelXeon16(), Workers: 16, Layout: layout.BCL, Policy: sched.NewStatic(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dy, err := FactorSim(n, n, b, 0, 3, Config{Machine: IntelXeon16(), Workers: 16, Layout: layout.BCL, Policy: sched.NewDynamic(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dy.Gflops <= st.Gflops {
		t.Fatalf("dynamic %g should beat static %g on intel", dy.Gflops, st.Gflops)
	}
}

// 2l-BL under fully dynamic scheduling collapses on the NUMA machine
// (paper Figure 10): tile reuse is lost and nothing can be grouped.
func TestTwoLevelDynamicCollapsesOnNUMA(t *testing.T) {
	n, b := 5000, 100
	nb := n / b
	dy, err := FactorSim(n, n, b, 0, 1, Config{Machine: AMDOpteron48(), Workers: 48, Layout: layout.TwoLevel, Policy: sched.NewDynamic(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := FactorSim(n, n, b, nb-nb/10, 1, Config{Machine: AMDOpteron48(), Workers: 48, Layout: layout.TwoLevel, Policy: sched.NewHybrid(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Gflops < 1.3*dy.Gflops {
		t.Fatalf("2l-BL dynamic should collapse: hybrid %g vs dynamic %g", hy.Gflops, dy.Gflops)
	}
}

// CM under dynamic scheduling is the worst configuration (Figure 14).
func TestColumnMajorDynamicWorst(t *testing.T) {
	n, b := 2500, 100
	cm, err := FactorSim(n, n, b, 0, 1, Config{Machine: AMDOpteron48(), Workers: 16, Layout: layout.CM, Policy: sched.NewDynamic(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bcl, err := FactorSim(n, n, b, 0, 3, Config{Machine: AMDOpteron48(), Workers: 16, Layout: layout.BCL, Policy: sched.NewDynamic(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Gflops >= bcl.Gflops {
		t.Fatalf("CM dynamic %g should trail BCL dynamic %g", cm.Gflops, bcl.Gflops)
	}
}

func TestTraceRecordsVirtualTimeline(t *testing.T) {
	tr := trace.New(16)
	_, err := FactorSim(1600, 1600, 100, 16, 3, Config{
		Machine: AMDOpteron48().Quiet(), Workers: 16, Layout: layout.BCL,
		Policy: sched.NewStatic(), Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan() <= 0 {
		t.Fatal("no virtual makespan")
	}
	spans := 0
	for w := 0; w < 16; w++ {
		spans += len(tr.Spans[w])
	}
	if spans == 0 {
		t.Fatal("no spans recorded")
	}
}

func TestEfficiencyModel(t *testing.T) {
	grouped := &dag.Task{Kind: dag.S, Group: []int{1, 3, 5}}
	single := &dag.Task{Kind: dag.S}
	if Efficiency(grouped, layout.BCL) <= Efficiency(single, layout.BCL) {
		t.Fatal("grouping must raise BCL gemm efficiency")
	}
	if Efficiency(single, layout.TwoLevel) <= Efficiency(single, layout.BCL) {
		t.Fatal("ungrouped tile gemm must beat ungrouped BCL gemm")
	}
	if Efficiency(single, layout.CM) >= Efficiency(single, layout.TwoLevel) {
		t.Fatal("CM gemm must be the slowest")
	}
	panel := &dag.Task{Kind: dag.Final}
	if Efficiency(panel, layout.BCL) >= Efficiency(single, layout.TwoLevel) {
		t.Fatal("panel kernels must be slower than gemm")
	}
}

func TestFewerWorkersSlower(t *testing.T) {
	cfg24 := quietConfig(layout.BCL, sched.NewHybrid(), 24)
	cfg48 := quietConfig(layout.BCL, sched.NewHybrid(), 48)
	r24, err := FactorSim(6000, 6000, 100, 54, 3, cfg24)
	if err != nil {
		t.Fatal(err)
	}
	r48, err := FactorSim(6000, 6000, 100, 54, 3, cfg48)
	if err != nil {
		t.Fatal(err)
	}
	if r24.Gflops >= r48.Gflops {
		t.Fatalf("24 cores %g not slower than 48 cores %g", r24.Gflops, r48.Gflops)
	}
}

// Property: simulation never loses tasks and always conserves time, for
// random shapes, layouts and policies.
func TestSimConservationProperty(t *testing.T) {
	kinds := []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 400 + int(rng.Int31n(1200))
		b := 50 + int(rng.Int31n(100))
		w := 1 + int(rng.Int31n(48))
		kind := kinds[rng.Intn(3)]
		nb := (n + b - 1) / b
		ns := int(rng.Int31n(int32(nb + 1)))
		var pol sched.Policy
		switch rng.Intn(3) {
		case 0:
			pol = sched.NewStatic()
			ns = nb
		case 1:
			pol = sched.NewDynamic()
			ns = 0
		default:
			pol = sched.NewHybrid()
		}
		res, err := FactorSim(n, n, b, ns, 1+int(rng.Int31n(3)), Config{
			Machine: AMDOpteron48(), Workers: w, Layout: kind, Policy: pol, Seed: seed,
		})
		if err != nil {
			return false
		}
		total := res.BusyTime + res.OverheadTime + res.NoiseTime + res.IdleTime
		return math.Abs(total-res.Makespan*float64(w)) < 1e-6*total && res.Gflops > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
