package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mat"
)

const (
	engSmallBlock = 32
	engSolveN     = 256
	engSolveNRHS  = 4
	engLargeN     = 512
	// engLargeEvery is the round period of the large class.
	engLargeEvery = 4
)

// engineWorkload is a closed loop of W submitters on one resident
// engine. Each round a submitter sends eight small jobs — four LUs of
// n 64 or 96 and four nrhs=4 solves against a resident n=256
// factorization — and, every fourth round, one n=512 LU; then it waits
// for all of them. An op is one small-class job.
type engineWorkload struct {
	eng *engine.Engine

	smallA   []*mat.Dense
	smallRef []*core.Factorization
	resident *core.Factorization
	rhs      []*mat.Dense
	rhsRef   []*mat.Dense
	largeA   *mat.Dense
	// largeRef[g] is the reference at a granted share of g workers: the
	// engine may grant less than the request, and the static
	// distribution (so the pivots) depends on the share.
	largeRef map[int]*core.Factorization

	// wait, span and over hold, per traced op, the engine's own queue
	// wait and service span and the rest of the op's wall time.
	wait, span, over []float64
}

func (e *engineWorkload) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	verified := func(a *mat.Dense, opt core.Options) (*core.Factorization, error) {
		f, err := core.Factor(a, opt)
		if err != nil {
			return nil, err
		}
		if r, tol := luResidual(a, f, rng), luTol*float64(a.Rows); r > tol {
			return nil, fmt.Errorf("reference residual %g above %g (n=%d)", r, tol, a.Rows)
		}
		return f, nil
	}
	var err error
	e.smallA, e.smallRef = nil, nil
	for _, n := range []int{64, 96, 64, 96} {
		a := mat.Random(n, n, rng)
		f, err := verified(a, hybridOptions(engSmallBlock, 1))
		if err != nil {
			return err
		}
		e.smallA, e.smallRef = append(e.smallA, a), append(e.smallRef, f)
	}
	resA := mat.Random(engSolveN, engSolveN, rng)
	if e.resident, err = verified(resA, hybridOptions(engSmallBlock, 1)); err != nil {
		return err
	}
	e.rhs, e.rhsRef = nil, nil
	for i := 0; i < 4; i++ {
		b := mat.Random(engSolveN, engSolveNRHS, rng)
		x, err := e.resident.SolveMany(b, hybridOptions(engSmallBlock, 1))
		if err != nil {
			return err
		}
		for c := 0; c < engSolveNRHS; c++ {
			if r := core.SolveResidual(resA, x.Col(c), b.Col(c)); r > solveTol {
				return fmt.Errorf("reference solve residual %g above %g", r, solveTol)
			}
		}
		e.rhs, e.rhsRef = append(e.rhs, b), append(e.rhsRef, x)
	}
	e.largeA = mat.Random(engLargeN, engLargeN, rng)
	e.largeRef = map[int]*core.Factorization{}
	for g := 1; g <= loadWidth(); g++ {
		if e.largeRef[g], err = verified(e.largeA, hybridOptions(luBlock, g)); err != nil {
			return err
		}
	}
	if e.eng, err = engine.New(engine.Options{Workers: loadWidth(), DynamicRatio: 0.25}); err != nil {
		return err
	}
	// Warm-up: a few rounds fill the pool's workspaces.
	warm := &sample{}
	for round := 0; round < 2*engLargeEvery; round++ {
		e.round(round, warm, &sync.Mutex{}, nil)
	}
	if warm.failed > 0 {
		return fmt.Errorf("%d of %d warm-up jobs failed", warm.failed, warm.attempted)
	}
	return nil
}

func (e *engineWorkload) close() {
	if e.eng != nil {
		e.eng.Close()
		e.eng = nil
	}
}

// engineJob is one submitted job and what its result must equal.
type engineJob struct {
	job    *engine.Job
	submit time.Time
	// done is stamped by a goroutine parked on job.Done(), so a job that
	// finishes early is not charged for its round mates.
	done  time.Time
	large bool
	lu    *core.Factorization // expected, for a small LU
	x     *mat.Dense          // expected, for a solve
}

func (e *engineWorkload) ok(j *engineJob) bool {
	if j.job.Wait() != nil {
		return false
	}
	switch {
	case j.large:
		ref := e.largeRef[j.job.Granted()]
		return ref != nil && sameLU(j.job.Factorization(), ref)
	case j.lu != nil:
		return sameLU(j.job.Factorization(), j.lu)
	}
	x := j.job.SolutionMatrix()
	return x != nil && sameBits(x.Data, j.x.Data)
}

// round submits one round, waits for it and then, off the clock, checks
// every result bit for bit against its verified reference. It returns
// the time from the first submit to the last completion. With a recorder
// the round's small jobs are traced.
func (e *engineWorkload) round(round int, s *sample, mu *sync.Mutex, rec *recorder) time.Duration {
	var jobs []*engineJob
	start := time.Now()
	var wg sync.WaitGroup
	submit := func(j *engineJob, send func() (*engine.Job, error)) {
		var err error
		j.submit = time.Now()
		if j.job, err = send(); err != nil {
			mu.Lock()
			s.attempted++
			s.failed++
			mu.Unlock()
			return
		}
		jobs = append(jobs, j)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-j.job.Done()
			j.done = time.Now()
		}()
	}
	for i := 0; i < 4; i++ {
		k := (round + i) % len(e.smallA)
		submit(&engineJob{lu: e.smallRef[k]}, func() (*engine.Job, error) {
			return e.eng.SubmitFactor(e.smallA[k], hybridOptions(engSmallBlock, 1))
		})
		submit(&engineJob{x: e.rhsRef[k]}, func() (*engine.Job, error) {
			return e.eng.SubmitSolveMany(e.resident, e.rhs[k], hybridOptions(engSmallBlock, 1))
		})
	}
	if round%engLargeEvery == 0 {
		submit(&engineJob{large: true}, func() (*engine.Job, error) {
			return e.eng.SubmitFactor(e.largeA, hybridOptions(luBlock, loadWidth()))
		})
	}
	wg.Wait()
	took := time.Since(start)

	good := make([]bool, len(jobs))
	for i, j := range jobs {
		good[i] = e.ok(j)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, j := range jobs {
		s.attempted++
		s.checked++
		if !good[i] {
			s.failed++
			continue
		}
		lat := j.done.Sub(j.submit).Seconds()
		switch {
		case j.large:
			s.large = append(s.large, lat)
		case rec != nil:
			s.latTraced = append(s.latTraced, lat)
			wait, span := j.job.QueueWait().Seconds(), j.job.Span().Seconds()
			e.wait, e.span, e.over = append(e.wait, wait), append(e.span, span), append(e.over, lat-wait-span)
			op := rec.newOp()
			end := rec.at(j.done)
			root := rec.real(op, -1, "client.op", j.submit, j.done)
			// The engine reports how long the job waited and ran, not
			// when; both are laid against the completion stamp.
			rec.add(op, root, "engine.wait", end-span-wait, end-span, 1, true)
			rec.add(op, root, "engine.span", end-span, end, 1, true)
		default:
			s.lat = append(s.lat, lat)
			if j.lu != nil {
				s.flops += luFlops(j.lu.L.Rows, j.lu.L.Rows)
			} else {
				s.flops += solveFlops(engSolveN, engSolveNRHS)
			}
		}
	}
	return took
}

func (e *engineWorkload) measure(window time.Duration, rec *recorder, layer values) (*sample, error) {
	s := &sample{}
	var mu sync.Mutex
	st0 := e.eng.Stats()
	var wg sync.WaitGroup
	// Each submitter runs until its own rounds fill the window: its clock
	// stops while it compares results, so ops_per_s does not depend on
	// the checker's speed.
	clocks := make([]time.Duration, loadWidth())
	t0 := time.Now()
	for c := range clocks {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// The wall-clock cap ends a run whose submits are refused.
			for round := c; clocks[c] < window && time.Since(t0) < 2*window; round++ {
				var r *recorder
				if round%2 == 1 {
					r = rec
				}
				clocks[c] += e.round(round, s, &mu, r)
			}
		}(c)
	}
	wg.Wait()
	s.elapsed = meanSeconds(clocks)
	s.within = len(s.lat)
	if rec != nil {
		st1 := e.eng.Stats()
		done := float64(st1.JobsDone - st0.JobsDone)
		layer["engine.fused_share"] = float64(st1.FusedJobs-st0.FusedJobs) / done
		layer["engine.lends_per_job"] = float64(st1.Lends-st0.Lends) / done
		layer["engine.shed"] = float64(st1.Shed - st0.Shed)
		layer["engine.queue_wait_s_p50"] = median(e.wait)
		layer["engine.span_s_p50"] = median(e.span)
		layer["engine.overhead_s_p50"] = median(e.over)
	}
	return s, nil
}
