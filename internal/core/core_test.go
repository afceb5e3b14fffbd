package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/trace"
)

const tol = 1e-9

func TestReferenceLU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mat.Random(50, 50, rng)
	f, err := ReferenceLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > tol {
		t.Fatalf("reference residual %g", r)
	}
}

// TestFactorDesignSpace exercises every cell of the paper's Table 1:
// {BCL, 2l-BL} x {static, dynamic, hybrid} plus CM x dynamic, and
// validates PA = LU numerically for each.
func TestFactorDesignSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := mat.Random(96, 96, rng)
	type cell struct {
		kind  layout.Kind
		sched Scheduler
	}
	cells := []cell{
		{layout.BCL, ScheduleStatic},
		{layout.BCL, ScheduleDynamic},
		{layout.BCL, ScheduleHybrid},
		{layout.TwoLevel, ScheduleStatic},
		{layout.TwoLevel, ScheduleDynamic},
		{layout.TwoLevel, ScheduleHybrid},
		{layout.CM, ScheduleDynamic},
	}
	for _, c := range cells {
		f, err := Factor(a, Options{
			Layout: c.kind, Block: 16, Workers: 4,
			Scheduler: c.sched, DynamicRatio: 0.25,
		})
		if err != nil {
			t.Fatalf("%v/%v: %v", c.kind, c.sched, err)
		}
		if r := Residual(a, f); r > tol {
			t.Errorf("%v/%v: residual %g", c.kind, c.sched, r)
		}
	}
}

func TestFactorDratioSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := mat.Random(80, 80, rng)
	for _, d := range []float64{0, 0.1, 0.2, 0.5, 0.75, 1.0} {
		f, err := Factor(a, Options{Layout: layout.BCL, Block: 16, Workers: 4, Scheduler: ScheduleHybrid, DynamicRatio: d})
		if err != nil {
			t.Fatalf("dratio %g: %v", d, err)
		}
		if r := Residual(a, f); r > tol {
			t.Errorf("dratio %g: residual %g", d, r)
		}
	}
}

func TestFactorRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := [][2]int{{120, 40}, {40, 120}, {100, 30}, {37, 90}, {65, 65}}
	for _, s := range shapes {
		a := mat.Random(s[0], s[1], rng)
		f, err := Factor(a, Options{Layout: layout.BCL, Block: 16, Workers: 4, Scheduler: ScheduleHybrid, DynamicRatio: 0.3})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r := Residual(a, f); r > tol {
			t.Errorf("%v: residual %g", s, r)
		}
	}
}

func TestFactorRaggedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Sizes deliberately not multiples of the block size.
	for _, n := range []int{33, 47, 50, 63} {
		a := mat.Random(n, n, rng)
		for _, kind := range []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel} {
			f, err := Factor(a, Options{Layout: kind, Block: 16, Workers: 3, Scheduler: ScheduleHybrid, DynamicRatio: 0.4})
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, kind, err)
			}
			if r := Residual(a, f); r > tol {
				t.Errorf("n=%d %v: residual %g", n, kind, r)
			}
		}
	}
}

func TestFactorSingleWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := mat.Random(48, 48, rng)
	f, err := Factor(a, Options{Layout: layout.TwoLevel, Block: 8, Workers: 1, Scheduler: ScheduleHybrid, DynamicRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > tol {
		t.Fatalf("residual %g", r)
	}
}

func TestFactorManyWorkersFewBlocks(t *testing.T) {
	// More workers than blocks: the DAG must still drain.
	rng := rand.New(rand.NewSource(8))
	a := mat.Random(32, 32, rng)
	f, err := Factor(a, Options{Layout: layout.BCL, Block: 16, Workers: 12, Scheduler: ScheduleHybrid, DynamicRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > tol {
		t.Fatalf("residual %g", r)
	}
}

func TestFactorBlockLargerThanMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := mat.Random(10, 10, rng)
	f, err := Factor(a, Options{Layout: layout.BCL, Block: 32, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > tol {
		t.Fatalf("residual %g", r)
	}
}

func TestSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 60
	a := mat.Random(n, n, rng)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := 0; i < n; i++ {
			b[i] += col[i] * xTrue[j]
		}
	}
	f, err := Factor(a, Options{Layout: layout.BCL, Block: 16, Workers: 4, Scheduler: ScheduleHybrid, DynamicRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := SolveResidual(a, x, b); r > 1e-10 {
		t.Fatalf("solve residual %g", r)
	}
	maxErr := 0.0
	for i := range x {
		maxErr = math.Max(maxErr, math.Abs(x[i]-xTrue[i]))
	}
	if maxErr > 1e-6 {
		t.Fatalf("solution error %g", maxErr)
	}
}

func TestSolveRejectsNonSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := mat.Random(40, 20, rng)
	f, err := Factor(a, Options{Layout: layout.BCL, Block: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(make([]float64, 40)); err == nil {
		t.Fatal("expected error for non-square solve")
	}
}

func TestGrowthFactorComparableToGEPP(t *testing.T) {
	// Section 2: tournament pivoting is "as stable as partial pivoting
	// in practice". Compare growth factors on random matrices.
	rng := rand.New(rand.NewSource(12))
	a := mat.Random(128, 128, rng)
	ref, err := ReferenceLU(a)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factor(a, Options{Layout: layout.BCL, Block: 16, Workers: 4, Scheduler: ScheduleHybrid, DynamicRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	gCALU, gGEPP := GrowthFactor(a, f), GrowthFactor(a, ref)
	if gCALU > 30*gGEPP {
		t.Fatalf("tournament pivoting growth %g vs GEPP %g: unstable", gCALU, gGEPP)
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := mat.Random(70, 70, rng)
	f, err := Factor(a, Options{Layout: layout.TwoLevel, Block: 16, Workers: 4, Scheduler: ScheduleDynamic})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 70)
	for _, p := range f.Perm {
		if p < 0 || p >= 70 || seen[p] {
			t.Fatalf("perm is not a bijection: %v", f.Perm)
		}
		seen[p] = true
	}
}

func TestFactorWithTraceAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := mat.Random(64, 64, rng)
	tr := trace.New(4)
	noiseRng := rand.New(rand.NewSource(99))
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	f, err := Factor(a, Options{
		Layout: layout.BCL, Block: 16, Workers: 4,
		Scheduler: ScheduleHybrid, DynamicRatio: 0.25,
		Trace: tr,
		Noise: func(w int) time.Duration {
			<-mu
			d := time.Duration(0)
			if noiseRng.Float64() < 0.05 {
				d = 200 * time.Microsecond
			}
			mu <- struct{}{}
			return d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, f); r > tol {
		t.Fatalf("residual under noise %g", r)
	}
	total := 0
	for w := 0; w < 4; w++ {
		total += len(tr.Spans[w])
	}
	if total == 0 {
		t.Fatal("trace recorded nothing")
	}
	if tr.Makespan() <= 0 {
		t.Fatal("trace has no makespan")
	}
}

func TestCountersReflectScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := mat.Random(96, 96, rng)
	fs, err := Factor(a, Options{Layout: layout.BCL, Block: 16, Workers: 4, Scheduler: ScheduleStatic})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Counters.DequeueDynamic != 0 {
		t.Fatalf("static run has %d dynamic dequeues", fs.Counters.DequeueDynamic)
	}
	fd, err := Factor(a, Options{Layout: layout.BCL, Block: 16, Workers: 4, Scheduler: ScheduleDynamic})
	if err != nil {
		t.Fatal(err)
	}
	if fd.Counters.DequeueDynamic == 0 {
		t.Fatal("dynamic run recorded no dynamic dequeues")
	}
	if fd.Counters.DequeueStatic != 0 {
		t.Fatalf("dynamic run has %d static dequeues", fd.Counters.DequeueStatic)
	}
}

func TestNstaticCols(t *testing.T) {
	cases := []struct {
		sched Scheduler
		d     float64
		nb    int
		want  int
	}{
		{ScheduleStatic, 0.5, 10, 10},
		{ScheduleDynamic, 0.5, 10, 0},
		{ScheduleHybrid, 0.1, 10, 9},
		{ScheduleHybrid, 0.2, 10, 8},
		{ScheduleHybrid, 0, 10, 10},
		{ScheduleHybrid, 1, 10, 0},
		{ScheduleHybrid, 0.1, 5, 5}, // round(4.5), not 5 - round(0.5)
	}
	for _, c := range cases {
		o := Options{Scheduler: c.sched, DynamicRatio: c.d}
		if got := o.NstaticCols(c.nb); got != c.want {
			t.Errorf("%v d=%g: Nstatic=%d want %d", c.sched, c.d, got, c.want)
		}
	}
}

// TestParseSchedulerAndGroupSize: every name a command or request may
// spell resolves to its scheduler and round-trips through String, any
// other name is an error, and the group size is the paper's per layout.
func TestParseSchedulerAndGroupSize(t *testing.T) {
	for name, want := range map[string]Scheduler{
		"": ScheduleHybrid, "hybrid": ScheduleHybrid, "Static": ScheduleStatic,
		"dynamic": ScheduleDynamic,
	} {
		got, err := ParseScheduler(name)
		if err != nil || got != want {
			t.Errorf("ParseScheduler(%q) = %v, %v; want %v", name, got, err, want)
		}
		if back, err := ParseScheduler(want.String()); err != nil || back != want {
			t.Errorf("ParseScheduler(%v.String()) = %v, %v", want, back, err)
		}
	}
	for _, name := range []string{"worksteal", "ws", "fifo"} {
		if _, err := ParseScheduler(name); err == nil {
			t.Errorf("ParseScheduler accepted %q", name)
		}
	}
	for kind, want := range map[layout.Kind]int{layout.BCL: 3, layout.CM: 1 << 16, layout.TwoLevel: 1} {
		if got := (Options{Layout: kind}).GroupSize(); got != want {
			t.Errorf("%v: GroupSize %d, want %d", kind, got, want)
		}
	}
}

// Property: CALU matches the reference factorization's solution on
// random well-conditioned systems for random configurations.
func TestFactorMatchesReferenceProperty(t *testing.T) {
	kinds := []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel}
	scheds := []Scheduler{ScheduleStatic, ScheduleDynamic, ScheduleHybrid}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 24 + int(rng.Int31n(60))
		a := mat.RandomDiagDominant(n, rng)
		kind := kinds[rng.Intn(len(kinds))]
		sch := scheds[rng.Intn(len(scheds))]
		if kind == layout.CM {
			sch = ScheduleDynamic // Table 1: CM is evaluated with dynamic only
		}
		fac, err := Factor(a, Options{
			Layout: kind, Block: 8 + int(rng.Int31n(12)),
			Workers: 1 + int(rng.Int31n(5)), Scheduler: sch,
			DynamicRatio: rng.Float64(),
		})
		if err != nil {
			return false
		}
		return Residual(a, fac) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
