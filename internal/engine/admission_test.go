package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
)

func randMatrix(t *testing.T, n int, seed int64) *mat.Dense {
	t.Helper()
	return mat.Random(n, n, rand.New(rand.NewSource(seed)))
}

// gate submits a big-lane factorization whose first task blocks until
// the returned release is closed: a deterministic way to pin the
// pool's worker while further traffic queues up behind it. waitGated
// confirms the gate holds the worker (it is live and will stay live).
func gate(t *testing.T, e *Engine) (*Job, func()) {
	t.Helper()
	release := make(chan struct{})
	var once sync.Once
	j, err := e.SubmitFactor(randMatrix(t, 96, 3), core.Options{
		Class: core.ClassLarge,
		Noise: func(int) time.Duration { once.Do(func() { <-release }); return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	var rel sync.Once
	return j, func() { rel.Do(func() { close(release) }) }
}

// waitGated polls until the engine reports a live executor — with the
// gate blocking its first task, Active stays up until release.
func waitGated(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Active < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("gate job never started: %+v", e.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestEngineAutoClassification checks the flop cost model's routing: a
// 64x64 LU (~1.7e5 flops) classifies small, a 256x256 (~1.1e7) large,
// and explicit Class requests override the model.
func TestEngineAutoClassification(t *testing.T) {
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	cases := []struct {
		n    int
		opt  core.Options
		want core.JobClass
	}{
		{64, core.Options{}, core.ClassSmall},
		{256, core.Options{}, core.ClassLarge},
		{64, core.Options{Class: core.ClassLarge}, core.ClassLarge},
		{256, core.Options{Class: core.ClassSmall}, core.ClassSmall},
	}
	for _, c := range cases {
		j, err := e.SubmitFactor(randMatrix(t, c.n, 1), c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if j.Class() != c.want {
			t.Errorf("n=%d Class=%v: resolved %v, want %v", c.n, c.opt.Class, j.Class(), c.want)
		}
	}
	s := e.Stats()
	if s.Small.Done != 2 || s.Large.Done != 2 {
		t.Errorf("class counters: small %d large %d, want 2 and 2", s.Small.Done, s.Large.Done)
	}
	if s.Small.P50Ms <= 0 || s.Large.P50Ms <= 0 {
		t.Errorf("latency digests empty: small p50 %v, large p50 %v", s.Small.P50Ms, s.Large.P50Ms)
	}
}

// TestEngineFusesSmallBurst queues a burst of small jobs behind a
// gated job on a one-worker pool: when the worker frees up it must
// take the whole burst as one fused composite, and every member's
// result must be bit-identical to a one-shot run at the same width.
func TestEngineFusesSmallBurst(t *testing.T) {
	e, err := New(Options{Workers: 1, MaxInflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	big, release := gate(t, e)
	waitGated(t, e)

	const burst = 4
	mats := make([]*mat.Dense, burst)
	jobs := make([]*Job, burst)
	for i := range jobs {
		mats[i] = randMatrix(t, 64, int64(100+i))
		jobs[i], err = e.SubmitFactor(mats[i].Clone(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	release()
	if err := big.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if j.Granted() != 1 {
			t.Errorf("member %d granted %d, want member width 1", i, j.Granted())
		}
		want, err := core.Factor(mats[i], core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := j.Factorization()
		if !mat.Equal(got.L, want.L, 0) || !mat.Equal(got.U, want.U, 0) {
			t.Errorf("member %d: fused result differs from one-shot run", i)
		}
	}
	s := e.Stats()
	if s.FusionBatches != 1 || s.FusedJobs != burst {
		t.Errorf("fusion stats: %d batches carrying %d jobs, want 1 carrying %d",
			s.FusionBatches, s.FusedJobs, burst)
	}
	if s.JobsDone != burst+1 {
		t.Errorf("JobsDone %d, want %d", s.JobsDone, burst+1)
	}
}

// TestEngineExpressOvertakesBigLane queues a big job and then a small
// job behind a gated job on a one-worker pool: the small job must
// start before the earlier-arrived big job.
func TestEngineExpressOvertakesBigLane(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gated, release := gate(t, e)
	waitGated(t, e)
	big, err := e.SubmitFactor(randMatrix(t, 256, 4), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	small, err := e.SubmitFactor(randMatrix(t, 64, 5), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := big.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := small.Wait(); err != nil {
		t.Fatal(err)
	}
	// The pool is serial, so start order is the service order.
	if !small.started.Before(big.started) {
		t.Error("small job did not overtake the earlier big job on a serial pool")
	}
}

// TestEngineLaxityOrdersLane checks SLO ordering inside a lane: of two
// queued big jobs the one with a deadline must start first even though
// it arrived second.
func TestEngineLaxityOrdersLane(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gated, release := gate(t, e)
	waitGated(t, e)
	relaxed, err := e.SubmitFactor(randMatrix(t, 256, 4), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	urgent, err := e.SubmitFactor(randMatrix(t, 256, 5), core.Options{Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := relaxed.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := urgent.Wait(); err != nil {
		t.Fatal(err)
	}
	// The pool is serial, so start order is the service order.
	if !urgent.started.Before(relaxed.started) {
		t.Errorf("deadline job started %v, after the no-deadline job at %v",
			urgent.started, relaxed.started)
	}
}

// TestEngineShedsInfeasibleDeadline submits work whose estimated
// service time cannot fit its deadline: the submission must fail with
// ErrDeadlineInfeasible without consuming an admission slot, a queue
// entry or a reservation.
func TestEngineShedsInfeasibleDeadline(t *testing.T) {
	e, err := New(Options{Workers: 2, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	_, err = e.SubmitFactor(randMatrix(t, 256, 1), core.Options{Deadline: time.Nanosecond})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("err %v, want ErrDeadlineInfeasible", err)
	}
	if _, err := e.SubmitFactor(randMatrix(t, 64, 2), core.Options{Deadline: -time.Second}); !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("negative deadline: err %v, want ErrDeadlineInfeasible", err)
	}
	s := e.Stats()
	if s.Shed != 2 {
		t.Errorf("Shed %d, want 2", s.Shed)
	}
	if s.Pending != 0 || s.ReservedInUse != 0 {
		t.Errorf("shed submission left state behind: pending %d reserved %d", s.Pending, s.ReservedInUse)
	}
	if s.JobsFailed != 0 {
		t.Errorf("sheds counted as failed jobs: %d", s.JobsFailed)
	}
	// The admission slot was not consumed: a MaxInflight=1 engine still
	// accepts (and completes) a feasible job.
	j, err := e.SubmitFactor(randMatrix(t, 64, 3), core.Options{Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSubmitCtxCancelsQueued cancels a job that is waiting in a
// lane: it must be marked failed with the context's cause and never
// execute. Jobs already running are unaffected.
func TestEngineSubmitCtxCancelsQueued(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gated, release := gate(t, e)
	defer release() // before Close, so a failure below cannot hang it
	waitGated(t, e)

	ctx, cancel := context.WithCancelCause(context.Background())
	queued, err := e.Submit(ctx, FactorWork(randMatrix(t, 128, 2)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("client went away")
	cancel(cause)
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued job still waiting: Submit dropped its context")
	}
	if err := queued.Wait(); !errors.Is(err, cause) {
		t.Fatalf("cancelled job err %v, want cause %v", err, cause)
	}
	if queued.Factorization() != nil || queued.Span() != 0 {
		t.Error("cancelled job executed")
	}
	release()
	if err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Cancelled != 1 {
		t.Errorf("Cancelled %d, want 1", s.Cancelled)
	}
	if s.JobsFailed != 1 {
		t.Errorf("JobsFailed %d, want 1 (the cancelled job)", s.JobsFailed)
	}
}

// TestEngineSubmitCtxUnblocksAdmission cancels a submission that is
// blocked waiting for an admission slot: Submit must return the
// context error instead of blocking forever.
func TestEngineSubmitCtxUnblocksAdmission(t *testing.T) {
	e, err := New(Options{Workers: 1, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gated, release := gate(t, e)
	defer release() // before Close, so a failure below cannot hang it
	waitGated(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, FactorWork(randMatrix(t, 64, 2)), core.Options{})
		errc <- err
	}()
	// Let the submitter reach the capacity wait, then cancel it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled submission still blocked in admission")
	}
	release()
	if err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFusedMixedKinds fuses factor and solve jobs in one burst
// and checks each member's result against its one-shot equivalent.
func TestEngineFusedMixedKinds(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a := randMatrix(t, 64, 11)
	fac, err := core.Factor(a.Clone(), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 64)
	for i := range b {
		b[i] = float64(i + 1)
	}
	bm := mat.FromColMajor(len(b), 1, len(b), append([]float64(nil), b...))
	wantX, err := fac.SolveMany(bm, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	gated, release := gate(t, e)
	waitGated(t, e)
	jf, err := e.SubmitFactor(a.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	js, err := e.Submit(bg, SolveWork(fac, col(b)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := jf.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := js.Wait(); err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(jf.Factorization().L, fac.L, 0) || !mat.Equal(jf.Factorization().U, fac.U, 0) {
		t.Error("fused factor differs from one-shot factor")
	}
	for i, want := range wantX.Col(0) {
		if js.SolutionMatrix().Col(0)[i] != want {
			t.Fatalf("fused solve x[%d] = %v, want %v", i, js.SolutionMatrix().Col(0)[i], want)
		}
	}
	if s := e.Stats(); s.FusedJobs < 2 {
		t.Errorf("FusedJobs %d, want the factor and the solve fused together", s.FusedJobs)
	}
}
