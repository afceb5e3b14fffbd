package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
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

// runOnce is the one-shot reference of any kind: core.Prepare*(...).Run().
func runOnce[R any](p *core.Prepared[R], err error) (any, error) {
	if err != nil {
		return nil, err
	}
	r, err := p.Run()
	return r, err
}

// TestWorkKindsSoloAndFused drives every Work constructor through the
// engine twice — alone on its own reservation, and as a member of one
// fused express-lane burst — and requires Job.Result to carry the
// kind's type and the bits of the same core.Prepare*(...).Run() at
// Workers = Granted.
func TestWorkKindsSoloAndFused(t *testing.T) {
	a := randMatrix(t, 64, 21)
	spd := core.RandomSPD(64, 21)
	lu, err := core.Factor(a, core.Options{Block: 16})
	if err != nil {
		t.Fatal(err)
	}
	b := mat.Random(64, 3, rand.New(rand.NewSource(22)))
	opt := core.Options{Block: 16, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.25}

	kinds := []struct {
		name string
		work func() Work
		run  func(core.Options) (any, error) // the one-shot reference
	}{
		{"lu", func() Work { return FactorWork(a) },
			func(o core.Options) (any, error) { return runOnce(core.PrepareFactor(a, o)) }},
		{"cholesky", func() Work { return CholeskyWork(spd) },
			func(o core.Options) (any, error) { return runOnce(core.PrepareCholesky(spd, o)) }},
		{"solve", func() Work { return SolveWork(lu, b) },
			func(o core.Options) (any, error) { return runOnce(lu.PrepareSolve(b, o)) }},
	}
	check := func(t *testing.T, tag string, j *Job, run func(core.Options) (any, error)) {
		t.Helper()
		if err := j.Wait(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		ref := opt
		ref.Workers = j.Granted()
		want, err := run(ref)
		if err != nil {
			t.Fatalf("%s reference: %v", tag, err)
		}
		sameResult(t, tag, j.Result(), want)
	}

	t.Run("solo", func(t *testing.T) {
		e, err := New(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for _, k := range kinds {
			req := opt
			req.Workers = 2
			req.Class = core.ClassLarge // the big lane never fuses
			j, err := e.Submit(bg, k.work(), req)
			if err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			check(t, k.name, j, k.run)
		}
		if s := e.Stats(); s.FusedJobs != 0 {
			t.Errorf("FusedJobs %d on the solo pass", s.FusedJobs)
		}
	})

	t.Run("fused", func(t *testing.T) {
		e, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// Queue the three kinds behind a gated job on a one-worker pool:
		// when the worker frees up it takes them as one composite.
		gated, release := gate(t, e)
		waitGated(t, e)
		jobs := make([]*Job, len(kinds))
		for i, k := range kinds {
			req := opt
			req.Class = core.ClassSmall
			if jobs[i], err = e.Submit(bg, k.work(), req); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
		}
		release()
		if err := gated.Wait(); err != nil {
			t.Fatal(err)
		}
		for i, k := range kinds {
			check(t, k.name, jobs[i], k.run)
		}
		if s := e.Stats(); s.FusionBatches != 1 || s.FusedJobs != int64(len(kinds)) {
			t.Errorf("fusion stats: %d batches carrying %d jobs, want 1 carrying %d",
				s.FusionBatches, s.FusedJobs, len(kinds))
		}
	})
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
