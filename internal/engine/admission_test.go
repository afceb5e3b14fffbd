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

// gate submits a big-lane factorization (128x128, over smallJobFlops)
// whose first task blocks until the returned release is closed: a
// deterministic way to pin the pool's worker while further traffic
// queues up behind it. waitGated confirms the gate holds the worker (it
// is live and will stay live).
func gate(t *testing.T, e *Engine) (*Job, func()) {
	t.Helper()
	release := make(chan struct{})
	var once sync.Once
	j, err := e.SubmitFactor(randMatrix(t, 128, 3), core.Options{
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

// TestEngineAutoClassification checks the flop cost model's routing on
// both sides of smallJobFlops: 64x64 (~1.7e5 flops) and 96x96 (~5.9e5)
// LUs classify small, 128x128 (~1.4e6) and 256x256 (~1.1e7) large.
func TestEngineAutoClassification(t *testing.T) {
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	cases := []struct {
		n    int
		want Class
	}{
		{64, ClassSmall},
		{96, ClassSmall},
		{128, ClassLarge},
		{256, ClassLarge},
	}
	for _, c := range cases {
		j, err := e.SubmitFactor(randMatrix(t, c.n, 1), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if j.Class() != c.want {
			t.Errorf("n=%d: class %v, want %v", c.n, j.Class(), c.want)
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

// TestEngineSmallBurstRunsSolo queues a burst of small jobs behind a
// gated job on a one-worker pool. When the worker frees up every member
// of the burst must complete as its own one-worker job, with a result
// bit-identical to a one-shot run at that width.
func TestEngineSmallBurstRunsSolo(t *testing.T) {
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
		if j.Class() != ClassSmall || j.Granted() != 1 {
			t.Errorf("member %d: class %v granted %d, want small on one worker", i, j.Class(), j.Granted())
		}
		want, err := core.Factor(mats[i], core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameFactorization(t, "express factor", j.Factorization(), want)
	}
	s := e.Stats()
	if s.FusedJobs != 0 {
		t.Errorf("FusedJobs %d, want 0", s.FusedJobs)
	}
	if s.JobsDone != burst+1 || s.Small.Done != burst {
		t.Errorf("JobsDone %d (small %d), want %d (small %d)", s.JobsDone, s.Small.Done, burst+1, burst)
	}
}

// TestEngineExpressMixedKinds queues small factor and solve jobs in one
// burst behind a gated job and checks each job's result against its
// one-shot equivalent at one worker.
func TestEngineExpressMixedKinds(t *testing.T) {
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
	const solves = 2
	rhs := make([]*mat.Dense, solves)
	for i := range rhs {
		rhs[i] = mat.Random(64, 1+2*i, rand.New(rand.NewSource(int64(200+i))))
	}

	gated, release := gate(t, e)
	waitGated(t, e)
	jf, err := e.SubmitFactor(a.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	js := make([]*Job, solves)
	for i, b := range rhs {
		js[i], err = e.Submit(bg, SolveWork(fac, b), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	release()
	if err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := jf.Wait(); err != nil {
		t.Fatal(err)
	}
	sameFactorization(t, "express factor", jf.Factorization(), fac)
	for i, j := range js {
		if err := j.Wait(); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if j.Class() != ClassSmall || j.Granted() != 1 {
			t.Errorf("solve %d: class %v granted %d, want small on one worker", i, j.Class(), j.Granted())
		}
		want, err := fac.SolveMany(rhs[i], core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(j.SolutionMatrix(), want, 0) {
			t.Errorf("solve %d: express solve differs from the one-shot solve", i)
		}
	}
	if s := e.Stats(); s.JobsDone != solves+2 || s.FusedJobs != 0 {
		t.Errorf("JobsDone %d FusedJobs %d, want %d and 0", s.JobsDone, s.FusedJobs, solves+2)
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

// timerNotFired is a context whose deadline has passed but which is not
// done yet, as a context is until its timer fires.
type timerNotFired struct{ context.Context }

func (timerNotFired) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestEngineSubmitCtxDeadline: a job's deadline is its submission
// context's. A submission under an expired context returns
// DeadlineExceeded without taking an admission slot, and a queued job
// is withdrawn when its deadline passes; both count in Shed, not in
// Cancelled.
func TestEngineSubmitCtxDeadline(t *testing.T) {
	e, err := New(Options{Workers: 1, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gated, release := gate(t, e)
	defer release() // before Close, so a failure below cannot hang it
	waitGated(t, e)

	expired, cancel := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel()
	if j, err := e.Submit(expired, FactorWork(randMatrix(t, 64, 1)), core.Options{}); j != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit under an expired context = %v, %v; want no job and DeadlineExceeded", j, err)
	}
	// A deadline can pass before the context's timer has fired; admission
	// must refuse the submission all the same.
	if j, err := e.TrySubmit(timerNotFired{bg}, FactorWork(randMatrix(t, 64, 1)), core.Options{}); j != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TrySubmit past an unfired deadline = %v, %v; want no job and DeadlineExceeded", j, err)
	}
	if s := e.Stats(); s.Shed != 2 || s.Pending != 0 || s.JobsFailed != 0 {
		t.Fatalf("refused submissions: Shed %d Pending %d JobsFailed %d, want 2, 0, 0", s.Shed, s.Pending, s.JobsFailed)
	}

	// No slot was taken: the gate holds one of two, so this still fits.
	ctx, cancelQueued := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancelQueued()
	queued, err := e.TrySubmit(ctx, FactorWork(randMatrix(t, 64, 2)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("queued job still waiting after its deadline")
	}
	if err := queued.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("withdrawn job err %v, want DeadlineExceeded", err)
	}
	if queued.Factorization() != nil || queued.Span() != 0 {
		t.Error("withdrawn job executed")
	}
	s := e.Stats()
	if s.Shed != 3 || s.Cancelled != 0 {
		t.Errorf("Shed %d Cancelled %d, want 3 and 0", s.Shed, s.Cancelled)
	}
	if s.Pending != 0 || s.JobsFailed != 1 || s.Small.Failed != 1 {
		t.Errorf("Pending %d JobsFailed %d Small.Failed %d, want 0, 1, 1", s.Pending, s.JobsFailed, s.Small.Failed)
	}
	release()
	if err := gated.Wait(); err != nil {
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
