package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
	"repro/internal/sched"
)

// runSerial drains g with one worker under the static policy: every
// task lands in worker 0's queue, so the execution is one strictly
// serial priority order, whatever worker count the graph's owners (and
// its tournament bracket) were laid out for. It is the independent
// execution the bit-identity suites compare every policy x worker
// count against.
func runSerial(t *testing.T, g *dag.Graph) rt.Result {
	t.Helper()
	res, err := rt.Run(g, sched.NewStatic(), rt.Options{Workers: 1})
	if err != nil {
		t.Fatalf("serial reference run: %v", err)
	}
	return res
}

// serialFactor factors a on the graph built for opt.Workers owners,
// drained by runSerial.
func serialFactor(t *testing.T, a *mat.Dense, opt Options) *Factorization {
	t.Helper()
	job, err := PrepareFactor(a, opt)
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	return job.Finish(runSerial(t, job.Graph()))
}

// serialSolve is serialFactor's twin for a factorization's PrepareSolve
// (LU or Cholesky): the solve graph built for opt.Workers owners,
// drained by runSerial.
func serialSolve(t *testing.T, prepare func(*mat.Dense, Options) (*SolveJob, error), b *mat.Dense, opt Options) *mat.Dense {
	t.Helper()
	sj, err := prepare(b, opt)
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	return sj.Finish(runSerial(t, sj.Graph())).X
}

// sameFactorization fails the test unless f and ref have bit-identical
// pivot sequences and factors.
func sameFactorization(t *testing.T, tag string, f, ref *Factorization) {
	t.Helper()
	for i := range ref.Perm {
		if f.Perm[i] != ref.Perm[i] {
			t.Fatalf("%s: pivot %d differs: %d vs %d", tag, i, f.Perm[i], ref.Perm[i])
		}
	}
	for i := range ref.L.Data {
		if f.L.Data[i] != ref.L.Data[i] {
			t.Fatalf("%s: L[%d] differs: %x vs %x",
				tag, i, math.Float64bits(f.L.Data[i]), math.Float64bits(ref.L.Data[i]))
		}
	}
	for i := range ref.U.Data {
		if f.U.Data[i] != ref.U.Data[i] {
			t.Fatalf("%s: U[%d] differs: %x vs %x",
				tag, i, math.Float64bits(f.U.Data[i]), math.Float64bits(ref.U.Data[i]))
		}
	}
}

// TestFactorBitIdenticalAcrossPolicies is the end-to-end guarantee the
// concurrent runtime must preserve. For a fixed worker count the task
// graph — including the tournament-pivoting tree, whose bracket
// follows the worker grid — is fixed, so its dataflow determines the
// arithmetic completely: every scheduling policy at every worker count
// must produce pivot sequences and factors BIT-identical to the same
// graph drained serially by one worker. Any scheduling-dependent
// arithmetic — a lost update, a task run before its dependencies, a
// double execution — shows up here as a bit difference. Run under
// -race to also certify the dispatch paths.
func TestFactorBitIdenticalAcrossPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := [][2]int{{96, 96}, {120, 72}}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, sz := range sizes {
		m, n := sz[0], sz[1]
		a := mat.Random(m, n, rng)
		for _, workers := range []int{1, 2, 4, 8} {
			ref := serialFactor(t, a, Options{
				Block: 8, Workers: workers, Scheduler: ScheduleHybrid, DynamicRatio: 0.3,
			})
			if r := Residual(a, ref); r > 1e-12 {
				t.Fatalf("%dx%d workers=%d: reference residual %g too large", m, n, workers, r)
			}
			for _, s := range []Scheduler{ScheduleStatic, ScheduleDynamic, ScheduleHybrid} {
				f, err := Factor(a, Options{
					Block: 8, Workers: workers, Scheduler: s,
					DynamicRatio: 0.3,
				})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", s, workers, err)
				}
				tag := s.String() + "/" + string(rune('0'+workers)) + "w"
				sameFactorization(t, tag, f, ref)
				if r := Residual(a, f); r > 1e-12 {
					t.Fatalf("%s workers=%d: residual %g too large", s, workers, r)
				}
			}
		}
	}
}

// TestTallPanelTreeIndependentOfWorkers: an 8256 x 128 matrix at b = 64
// is taller than the tournament's default leaf height on every grid of
// up to 4 workers, so each of them builds the same tree — 3 leaves at
// step 0, 2 at step 1 — and every worker count and policy must give the
// serial one-worker run's pivots and factors bit for bit, with a
// backward error within 4x of plain GEPP's.
func TestTallPanelTreeIndependentOfWorkers(t *testing.T) {
	a := mat.Random(8256, 128, rand.New(rand.NewSource(43)))
	ref := serialFactor(t, a, Options{Block: 64, Workers: 1})
	gepp, err := ReferenceLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if r, bound := Residual(a, ref), 4*Residual(a, gepp); r > bound {
		t.Fatalf("backward error %g, more than 4x reference GEPP's %g", r, bound/4)
	}
	for _, workers := range []int{1, 2, 3, 4} {
		for _, s := range []Scheduler{ScheduleStatic, ScheduleDynamic, ScheduleHybrid} {
			f, err := Factor(a, Options{Block: 64, Workers: workers, Scheduler: s, DynamicRatio: 0.5})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s, workers, err)
			}
			sameFactorization(t, fmt.Sprintf("%s/%dw", s, workers), f, ref)
		}
	}
}

// TestFactorBitIdenticalAcrossLayoutsUnderConcurrency repeats the
// equivalence check on the other storage schemes at one contended
// configuration each, so layout-specific task closures are also covered
// by the race certification.
func TestFactorBitIdenticalAcrossLayoutsUnderConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := mat.Random(80, 80, rng)
	for _, lay := range []layout.Kind{layout.BCL, layout.CM, layout.TwoLevel} {
		ref := serialFactor(t, a, Options{
			Layout: lay, Block: 8, Workers: 8, Scheduler: ScheduleHybrid, DynamicRatio: 0.25,
		})
		f, err := Factor(a, Options{
			Layout: lay, Block: 8, Workers: 8, Scheduler: ScheduleHybrid, DynamicRatio: 0.25,
		})
		if err != nil {
			t.Fatalf("%v workers=8: %v", lay, err)
		}
		sameFactorization(t, lay.String(), f, ref)
	}
}

// TestDefaultSchedulerIsHybrid pins the documented default: the zero
// Scheduler is ScheduleHybrid, and at DynamicRatio 0 hybrid marks every
// block column static. What zero Options share with ScheduleStatic is
// therefore Nstatic = nb, no pop from the shared queue and bit-identical
// pivots/L/U; what they do not share is idle time — a hybrid worker
// about to sleep helps a lagging owner, and each such task is counted
// as a steal and a migration instead of an owner-queue pop.
func TestDefaultSchedulerIsHybrid(t *testing.T) {
	if s := (Options{}).Scheduler; s != ScheduleHybrid {
		t.Fatalf("zero Scheduler is %v, want %v", s, ScheduleHybrid)
	}
	if ns := (Options{}).NstaticCols(12); ns != 12 {
		t.Fatalf("zero Options make %d of 12 block columns static", ns)
	}
	a := mat.Random(96, 96, rand.New(rand.NewSource(53)))
	def, err := Factor(a, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Factor(a, Options{Workers: 4, Scheduler: ScheduleStatic})
	if err != nil {
		t.Fatal(err)
	}
	sameFactorization(t, "default vs static", def, st)
	total := int64(def.Stats.Total)
	if st.Counters != (sched.Counters{DequeueStatic: total}) {
		t.Fatalf("static counters %+v, want %d owner-queue pops and nothing else", st.Counters, total)
	}
	c := def.Counters
	if c.DequeueDynamic != 0 || c.DequeueStatic+c.Steals != total || c.Mismatches != c.Steals {
		t.Fatalf("default counters %+v: want no shared pops, owner pops + helps = %d tasks, every migration a help", c, total)
	}
}

// delayWorker0 is an Options.Noise that holds worker 0 up for d after
// every task it runs: sustained imbalance, the paper's delta_i.
func delayWorker0(d time.Duration) func(int) time.Duration {
	return func(worker int) time.Duration {
		if worker == 0 {
			return d
		}
		return 0
	}
}

// TestNoisyHybridHelpBitIdentical is the numerics contract of the help
// tier: with worker 0 delayed after every task (the paper's delta_i,
// sustained), the other workers drain their queues and take over its
// pinned backlog, and since the graph's dataflow fixes the arithmetic
// the pivots and factors stay bit-identical to the quiet static run on
// the same graph. Helps need a second processor to happen at all, so
// the Steals assertion is skipped on one.
func TestNoisyHybridHelpBitIdentical(t *testing.T) {
	a := mat.Random(96, 96, rand.New(rand.NewSource(71)))
	noise := delayWorker0(100 * time.Microsecond)
	for _, lay := range []layout.Kind{layout.BCL, layout.CM, layout.TwoLevel} {
		for _, workers := range []int{2, 4} {
			st, err := Factor(a, Options{Layout: lay, Block: 8, Workers: workers, Scheduler: ScheduleStatic})
			if err != nil {
				t.Fatalf("%v workers=%d static: %v", lay, workers, err)
			}
			for _, dratio := range []float64{0, 0.1} {
				tag := fmt.Sprintf("%v/%dw/dratio=%g", lay, workers, dratio)
				// Whether a sleeper reaches the backlog in time is up to
				// the OS scheduler; every attempt must be bit-identical,
				// and one of a few must have been helped.
				var c sched.Counters
				for attempt := 0; attempt < 5 && c.Steals == 0; attempt++ {
					f, err := Factor(a, Options{
						Layout: lay, Block: 8, Workers: workers, DynamicRatio: dratio, Noise: noise,
					})
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					sameFactorization(t, tag, f, st)
					c = f.Counters
				}
				if c.Steals == 0 && runtime.GOMAXPROCS(0) > 1 {
					t.Errorf("%s: no task of the delayed worker was helped: %+v", tag, c)
				}
			}
		}
	}
}

// runAndHandDrive prepares the same job twice (a Prepared is
// single-use), executes one twin with Run and the other by hand —
// Graph/Policy through rt.Run, then Finish, the way the engine and the
// benchmark drive a job — and returns both results.
func runAndHandDrive[R any](t *testing.T, prepare func() (*Prepared[R], error)) (run, hand R) {
	t.Helper()
	p, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	if run, err = p.Run(); err != nil {
		t.Fatal(err)
	}
	q, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(q.Graph(), q.Policy(), rt.Options{Workers: q.Opt.Workers})
	if err != nil {
		t.Fatalf("hand-driven run: %v", err)
	}
	return run, q.Finish(res)
}

// TestPreparedRunMatchesHandDriven pins Prepared's contract for all
// three kinds: Run is nothing but Graph/Policy/Finish driven through
// rt.Run, so the two agree bit for bit.
func TestPreparedRunMatchesHandDriven(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := mat.Random(96, 96, rng)
	spd := RandomSPD(96, 19)
	b := mat.Random(96, 3, rng)
	opt := Options{Block: 16, Workers: 3, Scheduler: ScheduleHybrid, DynamicRatio: 0.25}

	f, fHand := runAndHandDrive(t, func() (*FactorJob, error) { return PrepareFactor(a, opt) })
	sameFactorization(t, "lu", fHand, f)

	c, cHand := runAndHandDrive(t, func() (*CholeskyJob, error) { return PrepareCholesky(spd, opt) })
	sameBits(t, "cholesky L", cHand.L, c.L)

	x, xHand := runAndHandDrive(t, func() (*SolveJob, error) { return f.PrepareSolve(b, opt) })
	sameBits(t, "solve X", xHand.X, x.X)
	if x.Stats.Total == 0 || x.Makespan <= 0 {
		t.Errorf("Run dropped the run metadata: %+v", x)
	}
}
