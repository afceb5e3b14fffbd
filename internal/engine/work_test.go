package engine

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/sched"
)

// sameResult fails unless got has want's type — the kind's result type
// — and bit-identical contents.
func sameResult(t *testing.T, tag string, got, want any) {
	t.Helper()
	switch w := want.(type) {
	case *core.Factorization:
		g, ok := got.(*core.Factorization)
		if !ok {
			t.Fatalf("%s: Result is %T, want %T", tag, got, want)
		}
		sameFactorization(t, tag, g, w)
	case *core.CholeskyFactorization:
		g, ok := got.(*core.CholeskyFactorization)
		if !ok {
			t.Fatalf("%s: Result is %T, want %T", tag, got, want)
		}
		if !mat.Equal(g.L, w.L, 0) {
			t.Fatalf("%s: L differs from the one-shot run", tag)
		}
	case *core.Solution:
		g, ok := got.(*core.Solution)
		if !ok {
			t.Fatalf("%s: Result is %T, want %T", tag, got, want)
		}
		if !mat.Equal(g.X, w.X, 0) {
			t.Fatalf("%s: X differs from the one-shot run", tag)
		}
	default:
		t.Fatalf("%s: unexpected reference type %T", tag, want)
	}
}

// runOnce is the one-shot reference of any kind:
// core.Prepare*(...).Run(), with the task count of its graph.
func runOnce[R any](p *core.Prepared[R], err error) (any, int, error) {
	if err != nil {
		return nil, 0, err
	}
	tasks := len(p.Graph().Tasks)
	r, err := p.Run()
	return r, tasks, err
}

// workKind is one job kind with its one-shot reference.
type workKind struct {
	name string
	work func() Work
	run  func(core.Options) (any, int, error) // the one-shot reference
}

// workOpt is the submission options of the workKinds jobs.
var workOpt = core.Options{Block: 16, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.25}

// workKinds is one job of each kind on an n x n problem, the solve
// with nrhs right-hand sides. At n = 64, nrhs = 3 every one is
// small-class under the flop cost model; at n = 160, nrhs = 24 every
// one is large-class.
func workKinds(t *testing.T, n, nrhs int) []workKind {
	t.Helper()
	a := randMatrix(t, n, 21)
	spd := core.RandomSPD(n, 21)
	lu, err := core.Factor(a, core.Options{Block: 16})
	if err != nil {
		t.Fatal(err)
	}
	b := mat.Random(n, nrhs, rand.New(rand.NewSource(22)))
	return []workKind{
		{"lu", func() Work { return FactorWork(a) },
			func(o core.Options) (any, int, error) { return runOnce(core.PrepareFactor(a, o)) }},
		{"cholesky", func() Work { return CholeskyWork(spd) },
			func(o core.Options) (any, int, error) { return runOnce(core.PrepareCholesky(spd, o)) }},
		{"solve", func() Work { return SolveWork(lu, b) },
			func(o core.Options) (any, int, error) { return runOnce(lu.PrepareSolve(b, o)) }},
	}
}

// expressBehindGate queues one small-class job of each kind behind a
// gated job on a one-worker pool, releases the gate and returns the
// queued jobs, all completed.
func expressBehindGate(t *testing.T, kinds []workKind) (*Engine, []*Job) {
	t.Helper()
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	gated, release := gate(t, e)
	waitGated(t, e)
	jobs := make([]*Job, len(kinds))
	for i, k := range kinds {
		if jobs[i], err = e.Submit(bg, k.work(), workOpt); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
	}
	release()
	if err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatalf("%s: %v", kinds[i].name, err)
		}
	}
	return e, jobs
}

// reference runs k's one-shot reference at the job's granted share.
func reference(t *testing.T, k workKind, j *Job) (any, int) {
	t.Helper()
	ref := workOpt
	ref.Workers = j.Granted()
	want, tasks, err := k.run(ref)
	if err != nil {
		t.Fatalf("%s reference: %v", k.name, err)
	}
	return want, tasks
}

// TestWorkKindsOnBothLanes drives every Work constructor through the
// engine twice — large inputs on the big lane with a two-worker share,
// and small ones queued on the express lane behind a gated job — and
// requires Job.Result to carry the kind's type and the bits of the same
// core.Prepare*(...).Run() at Workers = Granted.
func TestWorkKindsOnBothLanes(t *testing.T) {
	check := func(t *testing.T, j *Job, k workKind, class Class) {
		t.Helper()
		if err := j.Wait(); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if j.Class() != class {
			t.Errorf("%s: class %v, want %v", k.name, j.Class(), class)
		}
		want, _ := reference(t, k, j)
		sameResult(t, k.name, j.Result(), want)
	}

	t.Run("big", func(t *testing.T) {
		e, err := New(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for _, k := range workKinds(t, 160, 24) {
			req := workOpt
			req.Workers = 2
			j, err := e.Submit(bg, k.work(), req)
			if err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			check(t, j, k, ClassLarge)
		}
	})

	t.Run("express", func(t *testing.T) {
		kinds := workKinds(t, 64, 3)
		e, jobs := expressBehindGate(t, kinds)
		for i, k := range kinds {
			check(t, jobs[i], k, ClassSmall)
		}
		if s := e.Stats(); s.FusedJobs != 0 {
			t.Errorf("FusedJobs %d, want 0", s.FusedJobs)
		}
	})
}

// TestEngineSmallJobsReportRuntime: a small job's result carries its
// own run's makespan and scheduler counters, like a large job's — one
// dequeue or help per task of its graph.
func TestEngineSmallJobsReportRuntime(t *testing.T) {
	kinds := workKinds(t, 64, 3)
	_, jobs := expressBehindGate(t, kinds)
	for i, k := range kinds {
		_, tasks := reference(t, k, jobs[i])
		var makespan time.Duration
		var c sched.Counters
		switch r := jobs[i].Result().(type) {
		case *core.Factorization:
			makespan, c = r.Makespan, r.Counters
		case *core.CholeskyFactorization:
			makespan, c = r.Makespan, r.Counters
		case *core.Solution:
			makespan, c = r.Makespan, r.Counters
		default:
			t.Fatalf("%s: unexpected result type %T", k.name, r)
		}
		if makespan <= 0 {
			t.Errorf("%s: Makespan %v, want > 0", k.name, makespan)
		}
		if got := c.DequeueStatic + c.DequeueDynamic + c.Steals; got != int64(tasks) {
			t.Errorf("%s: %d tasks dequeued (%+v), want the graph's %d", k.name, got, c, tasks)
		}
	}
}

// TestWorkRejectsEmptyInputs: a constructor's input check surfaces at
// Submit and TrySubmit as an error with no job and no admission slot
// taken.
func TestWorkRejectsEmptyInputs(t *testing.T) {
	e, err := New(Options{Workers: 1, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a := randMatrix(t, 16, 1)
	lu, err := core.Factor(a, core.Options{Block: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]Work{
		"factor nil":        FactorWork(nil),
		"factor 0 rows":     FactorWork(mat.New(0, 4)),
		"cholesky nil":      CholeskyWork(nil),
		"cholesky 0 cols":   CholeskyWork(mat.New(4, 0)),
		"solve nil factors": SolveWork(nil, mat.New(16, 1)),
		"solve nil rhs":     SolveWork(lu, nil),
		"solve 0 columns":   SolveWork(lu, mat.New(16, 0)),
	} {
		if j, err := e.Submit(bg, w, core.Options{}); err == nil || j != nil {
			t.Errorf("Submit(%s) = %v, %v; want no job and an error", name, j, err)
		}
		if j, err := e.TrySubmit(bg, w, core.Options{}); err == nil || j != nil {
			t.Errorf("TrySubmit(%s) = %v, %v; want no job and an error", name, j, err)
		}
	}
	if s := e.Stats(); s.Pending != 0 || s.JobsFailed != 0 {
		t.Errorf("rejected submissions left state behind: %+v", s)
	}
	// No slot was consumed: the MaxInflight=1 engine still admits.
	j, err := e.TrySubmit(bg, FactorWork(a), core.Options{Block: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}
