package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/trace"
)

const tol = 1e-9

var bg = context.Background()

// col wraps a vector as the one-column block SolveWork takes.
func col(b []float64) *mat.Dense { return mat.FromColMajor(len(b), 1, len(b), b) }

var allSchedulers = []core.Scheduler{
	core.ScheduleStatic, core.ScheduleDynamic, core.ScheduleHybrid,
}

// sameFactorization fails unless f and ref have bit-identical pivot
// sequences and factors.
func sameFactorization(t *testing.T, tag string, f, ref *core.Factorization) {
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

// TestEngineConcurrentJobsBitIdentical is the engine's end-to-end
// guarantee: N simultaneous Factor jobs across every scheduler and
// mixed requested worker counts produce pivots/L/U bit-identical to
// the same jobs run serially through the one-shot path at the granted
// share (the graph's dataflow fixes the arithmetic; a shared pool only
// reorders it). Run under -race to certify the engine's job start and
// completion paths.
func TestEngineConcurrentJobsBitIdentical(t *testing.T) {
	e, err := New(Options{Workers: 4, MaxInflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(101))
	type spec struct {
		a   *mat.Dense
		opt core.Options
		job *Job
	}
	var specs []*spec
	sizes := [][2]int{{64, 64}, {96, 96}, {72, 48}, {80, 80}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for si, sz := range sizes {
		for wi, workers := range []int{1, 2, 4} {
			s := &spec{
				a: mat.Random(sz[0], sz[1], rng),
				opt: core.Options{
					Block: 8, Workers: workers,
					Scheduler:    allSchedulers[(si+wi)%len(allSchedulers)],
					DynamicRatio: 0.3,
				},
			}
			specs = append(specs, s)
		}
	}
	// Submit everything at once so jobs genuinely overlap on the pool.
	for _, s := range specs {
		j, err := e.SubmitFactor(s.a, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		s.job = j
	}
	for i, s := range specs {
		if err := s.job.Wait(); err != nil {
			t.Fatalf("job %d (%v): %v", i, s.opt.Scheduler, err)
		}
		// The serial rerun of the same job: identical options at the
		// share the engine granted (the parallelism the task graph was
		// built for).
		ser := s.opt
		ser.Workers = s.job.Granted()
		ref, err := core.Factor(s.a, ser)
		if err != nil {
			t.Fatalf("serial rerun %d: %v", i, err)
		}
		tag := s.opt.Scheduler.String()
		sameFactorization(t, tag, s.job.Factorization(), ref)
		if r := core.Residual(s.a, s.job.Factorization()); r > tol {
			t.Fatalf("job %d residual %g", i, r)
		}
	}
}

// TestEngineJobsOverlap proves two jobs execute genuinely concurrently
// on the shared pool: each job's first executed task blocks until the
// other job has also executed one, a rendezvous that only completes if
// the engine runs both at once.
func TestEngineJobsOverlap(t *testing.T) {
	e, err := New(Options{Workers: 4, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(7))
	mkNoise := func(mine, other chan struct{}, timedOut *bool) func(int) time.Duration {
		var once sync.Once
		return func(int) time.Duration {
			once.Do(func() {
				close(mine)
				select {
				case <-other:
				case <-time.After(20 * time.Second):
					*timedOut = true
				}
			})
			return 0
		}
	}
	c1, c2 := make(chan struct{}), make(chan struct{})
	var to1, to2 bool
	a1, a2 := mat.Random(64, 64, rng), mat.Random(64, 64, rng)
	j1, err := e.SubmitFactor(a1, core.Options{
		Block: 8, Workers: 1, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.3,
		Noise: mkNoise(c1, c2, &to1),
	})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := e.SubmitFactor(a2, core.Options{
		Block: 8, Workers: 1, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.3,
		Noise: mkNoise(c2, c1, &to2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(); err != nil {
		t.Fatal(err)
	}
	if to1 || to2 {
		t.Fatal("rendezvous timed out: the jobs did not overlap")
	}
	if r := core.Residual(a1, j1.Factorization()); r > tol {
		t.Fatalf("job 1 residual %g", r)
	}
	if r := core.Residual(a2, j2.Factorization()); r > tol {
		t.Fatalf("job 2 residual %g", r)
	}
}

// TestEngineSingularFallback routes the tournament prefix-fallback
// path (an exactly singular chunk confined to one panel region)
// through the engine under every scheduler: the jobs must complete
// with normal residuals and match their serial reruns bit for bit.
func TestEngineSingularFallback(t *testing.T) {
	e, err := New(Options{Workers: 4, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(71))
	a := mat.Random(64, 64, rng)
	// Blank the panel columns of rows 4..31 so the first tournament
	// chunk of panel 0 is exactly singular while the matrix stays
	// nonsingular (the same construction as core's singular tests).
	for i := 4; i < 32; i++ {
		for j := 0; j < 8; j++ {
			a.Set(i, j, 0)
		}
	}
	var jobs []*Job
	var opts []core.Options
	for _, s := range allSchedulers {
		opt := core.Options{
			Layout: layout.BCL, Block: 8, Workers: 4,
			Scheduler: s, DynamicRatio: 0.25,
		}
		j, err := e.SubmitFactor(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		opts = append(opts, opt)
	}
	for i, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatalf("%v: singular chunk aborted the engine job: %v", opts[i].Scheduler, err)
		}
		if r := core.Residual(a, j.Factorization()); r > tol {
			t.Fatalf("%v: residual %g", opts[i].Scheduler, r)
		}
		ser := opts[i]
		ser.Workers = j.Granted()
		ref, err := core.Factor(a, ser)
		if err != nil {
			t.Fatal(err)
		}
		sameFactorization(t, opts[i].Scheduler.String(), j.Factorization(), ref)
	}
}

// TestEngineSolve round-trips Factor then Solve through the engine.
func TestEngineSolve(t *testing.T) {
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a := core.RandomSPD(48, 3)
	fj, err := e.SubmitFactor(a, core.Options{Block: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fj.Wait(); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 48)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	sj, err := e.Submit(bg, SolveWork(fj.Factorization(), col(b)), core.Options{Block: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Wait(); err != nil {
		t.Fatal(err)
	}
	if r := core.SolveResidual(a, sj.SolutionMatrix().Col(0), b); r > tol {
		t.Fatalf("solve residual %g", r)
	}
}

// TestEngineAdmissionBound holds the pool busy with a gated job and
// checks TrySubmit fails with ErrSaturated exactly at MaxInflight.
func TestEngineAdmissionBound(t *testing.T) {
	e, err := New(Options{Workers: 1, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	gate := make(chan struct{})
	var once sync.Once
	rng := rand.New(rand.NewSource(5))
	a := mat.Random(32, 32, rng)
	blocked, err := e.SubmitFactor(a, core.Options{
		Block: 8, Workers: 1,
		Noise: func(int) time.Duration { once.Do(func() { <-gate }); return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.TrySubmit(bg, FactorWork(a), core.Options{Block: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrySubmit(bg, FactorWork(a), core.Options{Block: 8, Workers: 1}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("expected ErrSaturated at MaxInflight, got %v", err)
	}
	close(gate)
	if err := blocked.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	// Capacity freed: submission works again.
	j, err := e.TrySubmit(bg, FactorWork(a), core.Options{Block: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineIgnoresDynamicRatio: the engine gives every job a static
// share of the whole pool whatever Options.DynamicRatio says. A wide
// factor on an idle pool is granted every worker, its result is
// bit-identical to a one-shot core.Factor at that share, no worker
// runs another job's tasks, and the trace holds one span per task.
func TestEngineIgnoresDynamicRatio(t *testing.T) {
	e, err := New(Options{Workers: 4, DynamicRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a := mat.Random(128, 128, rand.New(rand.NewSource(23)))
	opt := core.Options{Block: 16, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.25}
	traced := opt
	traced.Trace = trace.New(4)
	j, err := e.Submit(bg, FactorWork(a), traced)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if g := j.Granted(); g != 4 {
		t.Fatalf("wide factor on an idle 4-worker pool granted %d, want 4", g)
	}
	opt.Workers = 4
	ref, err := core.Factor(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFactorization(t, "idle pool", j.Factorization(), ref)
	if lends := e.Stats().Lends; lends != 0 {
		t.Fatalf("engine lent %d workers", lends)
	}
	spans := 0
	for _, s := range traced.Trace.Spans {
		spans += len(s)
	}
	if want := j.Factorization().Stats.Total; spans != want {
		t.Fatalf("trace recorded %d spans want %d", spans, want)
	}
}

// TestEngineCloseSemantics: queued jobs are rejected with ErrClosed,
// running jobs complete, and later submissions fail.
func TestEngineCloseSemantics(t *testing.T) {
	e, err := New(Options{Workers: 1, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate, started := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rng := rand.New(rand.NewSource(13))
	a := mat.Random(32, 32, rng)
	running, err := e.SubmitFactor(a, core.Options{
		Block: 8, Workers: 1,
		Noise: func(int) time.Duration {
			once.Do(func() { close(started); <-gate })
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is genuinely running before Close
	queued, err := e.SubmitFactor(a, core.Options{Block: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	// Close must reject the queued job even while a job is running.
	if err := queued.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued job got %v, want ErrClosed", err)
	}
	close(gate)
	if err := running.Wait(); err != nil {
		t.Fatalf("running job must complete across Close: %v", err)
	}
	<-closed
	if _, err := e.SubmitFactor(a, core.Options{Block: 8}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submission after Close got %v, want ErrClosed", err)
	}
}

// TestEngineCloseDuringStartGap races Close against a two-worker job
// that has just started and is still building its graph outside the
// engine lock. Close drops only queued jobs: the started one must run
// to completion and Close must wait for it, so neither may hang.
func TestEngineCloseDuringStartGap(t *testing.T) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	rng := rand.New(rand.NewSource(31))
	a := mat.Random(192, 192, rng) // sizeable graph build widens the gap
	for i := 0; i < iters; i++ {
		e, err := New(Options{Workers: 2, MaxInflight: 4})
		if err != nil {
			t.Fatal(err)
		}
		j, err := e.SubmitFactor(a, core.Options{Block: 8, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() { e.Close(); close(closed) }()
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("job stranded: a started job never completed across Close")
		}
		if err := j.Wait(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("Close hung")
		}
	}
}

// TestEnginePoolBoundsConcurrentTasks pins the pool bound on grant
// accounting alone: twelve jobs asking for two workers each on a
// three-worker pool never have more than three task bodies running at
// once (and a granted pair does run side by side), the grants and the
// started count return to zero, and after Close no goroutine of the
// engine's is left.
func TestEnginePoolBoundsConcurrentTasks(t *testing.T) {
	const workers, jobs, tasks = 3, 12, 6
	var running, peak atomic.Int32
	body := func() {
		n := running.Add(1)
		for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
	}
	// Independent tasks, so every worker of a grant can be busy at once.
	work := Work{
		flops: 1e9,
		run: func(opt core.Options) (any, error) {
			g := &dag.Graph{Name: "independent", Workers: opt.Workers}
			for i := range int32(tasks) {
				g.Tasks = append(g.Tasks, &dag.Task{ID: i, Kind: dag.S, Run: body})
			}
			_, err := rt.Run(g, sched.NewDynamic(), rt.Options{Workers: opt.Workers})
			return nil, err
		},
	}

	before := runtime.NumGoroutine()
	e, err := New(Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	submitted := make([]*Job, jobs)
	for i := range submitted {
		if submitted[i], err = e.Submit(bg, work, core.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range submitted {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > workers || p < 2 {
		t.Errorf("peak %d task bodies running at once, want 2..%d", p, workers)
	}
	if st := e.Stats(); st.ReservedInUse != 0 || st.Active != 0 {
		t.Errorf("after every job: ReservedInUse %d, Active %d, want 0", st.ReservedInUse, st.Active)
	}
	e.Close()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineStress floods a small pool with concurrent mixed-size,
// mixed-scheduler Factor and Solve traffic from several submitter
// goroutines — the short-mode engine stress for the -race job.
func TestEngineStress(t *testing.T) {
	e, err := New(Options{Workers: 4, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	submitters, perSub := 4, 6
	if testing.Short() {
		submitters, perSub = 2, 3
	}
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			for k := 0; k < perSub; k++ {
				n := 24 + 8*((s+k)%6)
				a := mat.Random(n, n, rng)
				opt := core.Options{
					Block: 8, Workers: 1 + (s+k)%4,
					Scheduler:    allSchedulers[(s+k)%len(allSchedulers)],
					DynamicRatio: 0.25,
				}
				j, err := e.SubmitFactor(a, opt)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if err := j.Wait(); err != nil {
					t.Errorf("factor %dx%d: %v", n, n, err)
					return
				}
				if r := core.Residual(a, j.Factorization()); r > tol {
					t.Errorf("factor %dx%d residual %g", n, n, r)
					return
				}
				b := make([]float64, n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				sj, err := e.Submit(bg, SolveWork(j.Factorization(), col(b)), opt)
				if err != nil {
					t.Errorf("solve submit: %v", err)
					return
				}
				if err := sj.Wait(); err != nil {
					t.Errorf("solve: %v", err)
					return
				}
				if r := core.SolveResidual(a, sj.SolutionMatrix().Col(0), b); r > tol {
					t.Errorf("solve residual %g", r)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	st := e.Stats()
	if st.JobsFailed != 0 {
		t.Fatalf("%d jobs failed", st.JobsFailed)
	}
	if want := int64(2 * submitters * perSub); st.JobsDone != want {
		t.Fatalf("JobsDone %d want %d", st.JobsDone, want)
	}
}

// TestEngineSolveMultiRHS pushes an n x nrhs block through the engine's
// blocked solve graph and checks every column against the scalar
// oracle residual-wise.
func TestEngineSolveMultiRHS(t *testing.T) {
	e, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(41))
	const n, nrhs = 96, 6
	a := mat.Random(n, n, rng)
	fj, err := e.SubmitFactor(a, core.Options{Block: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fj.Wait(); err != nil {
		t.Fatal(err)
	}
	b := mat.Random(n, nrhs, rng)
	sj, err := e.SubmitSolveMany(fj.Factorization(), b, core.Options{
		Block: 16, Workers: 2, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Wait(); err != nil {
		t.Fatal(err)
	}
	x := sj.SolutionMatrix()
	if x == nil || x.Rows != n || x.Cols != nrhs {
		t.Fatalf("solution block missing or misshapen: %+v", x)
	}
	for j := 0; j < nrhs; j++ {
		if r := core.SolveResidual(a, x.Col(j), b.Col(j)); r > tol {
			t.Fatalf("col %d residual %g", j, r)
		}
	}
}

// TestEngineSolveUsesMultipleWorkers is the acceptance check that a
// solve job with granted share > 1 is a real parallel citizen of the
// pool: its trace must show solve tasks executed on more than one
// worker timeline. A rendezvous in the noise hook makes the check
// deterministic on any machine (including a contended 1-CPU CI
// container): once the ready pool is deep, the first worker blocks
// until a second worker has also executed a task, which can only
// happen if the job truly runs on several of its granted workers.
func TestEngineSolveUsesMultipleWorkers(t *testing.T) {
	e, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(43))
	const n, nrhs = 512, 16
	a := mat.RandomDiagDominant(n, rng)
	fj, err := e.SubmitFactor(a, core.Options{Block: 32, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := fj.Wait(); err != nil {
		t.Fatal(err)
	}
	b := mat.Random(n, nrhs, rng)

	var mu sync.Mutex
	seen := map[int]bool{}
	completions := 0
	release := make(chan struct{})
	var releaseOnce sync.Once
	timedOut := false
	noise := func(w int) time.Duration {
		mu.Lock()
		seen[w] = true
		workers := len(seen)
		completions++
		c := completions
		mu.Unlock()
		if workers >= 2 {
			releaseOnce.Do(func() { close(release) })
			return 0
		}
		// Successors are resolved after this hook returns, so only
		// block once earlier completions have already published a deep
		// ready pool for the other workers to drain.
		if c >= 3 {
			select {
			case <-release:
			case <-time.After(20 * time.Second):
				mu.Lock()
				timedOut = true
				mu.Unlock()
				releaseOnce.Do(func() { close(release) })
			}
		}
		return 0
	}

	tr := trace.New(4)
	sj, err := e.SubmitSolveMany(fj.Factorization(), b, core.Options{
		Block: 32, Workers: 4, Scheduler: core.ScheduleDynamic, Trace: tr, Noise: noise,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Wait(); err != nil {
		t.Fatal(err)
	}
	if g := sj.Granted(); g != 4 {
		t.Fatalf("granted %d, want the full static share 4", g)
	}
	if timedOut {
		t.Fatal("rendezvous timed out: no second worker ever executed a solve task")
	}
	busy := 0
	for w := 0; w < tr.Workers; w++ {
		if len(tr.Spans[w]) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("solve tasks all ran on one worker; want them spread over the granted share")
	}
	// And the arithmetic is still right under the contention.
	x := sj.SolutionMatrix()
	for j := 0; j < nrhs; j++ {
		if r := core.SolveResidual(a, x.Col(j), b.Col(j)); r > tol {
			t.Fatalf("col %d residual %g", j, r)
		}
	}
}

// TestEngineCholesky routes a Cholesky factorization and its solves
// through the pool: CholeskyWork must match a one-shot
// core.FactorCholesky bit-for-bit at the granted share, and a SolveWork
// over its result must hit the usual residual bound.
func TestEngineCholesky(t *testing.T) {
	e, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a := core.RandomSPD(96, 9)
	opt := core.Options{Block: 16, Workers: 2, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.25}
	cj, err := e.Submit(bg, CholeskyWork(a), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cj.Wait(); err != nil {
		t.Fatal(err)
	}
	cf, _ := cj.Result().(*core.CholeskyFactorization)
	if cf == nil {
		t.Fatal("no cholesky result")
	}
	if r := core.CholeskyResidual(a, cf); r > tol {
		t.Fatalf("cholesky residual %g", r)
	}
	refOpt := opt
	refOpt.Workers = cj.Granted()
	ref, err := core.FactorCholesky(a, refOpt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.L.Data {
		if cf.L.Data[i] != ref.L.Data[i] {
			t.Fatalf("L[%d] differs from one-shot reference: %x vs %x",
				i, math.Float64bits(cf.L.Data[i]), math.Float64bits(ref.L.Data[i]))
		}
	}
	b := make([]float64, 96)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	sj, err := e.Submit(bg, SolveWork(cf, col(b)), core.Options{Block: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Wait(); err != nil {
		t.Fatal(err)
	}
	if r := core.SolveResidual(a, sj.SolutionMatrix().Col(0), b); r > tol {
		t.Fatalf("cholesky solve residual %g", r)
	}
}

// TestEngineSolveDegradedReportsPrefix: a solve against a degraded
// factorization must fail with the typed *core.SingularSolveError so
// service layers can report the solvable prefix, and the failure must
// not poison the pool for later jobs.
func TestEngineSolveDegradedReportsPrefix(t *testing.T) {
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(47))
	a := mat.Random(64, 64, rng)
	fj, err := e.SubmitFactor(a, core.Options{Block: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fj.Wait(); err != nil {
		t.Fatal(err)
	}
	f := fj.Factorization()
	for j := 40; j < 64; j++ {
		f.U.Set(j, j, 0)
	}
	b := make([]float64, 64)
	sj, err := e.Submit(bg, SolveWork(f, col(b)), core.Options{Block: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var se *core.SingularSolveError
	if err := sj.Wait(); !errors.As(err, &se) || se.Prefix != 40 || se.N != 64 {
		t.Fatalf("want SingularSolveError prefix 40 of 64, got %v", err)
	}
	// The pool must still serve fresh jobs after the failed solve.
	g, err := e.SubmitFactor(a, core.Options{Block: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}
