// Example service: a batch-solve workload — many small-to-medium
// matrices, each factored once and solved against a right-hand side —
// pushed through the resident engine, versus the spawn-workers-per-call
// baseline (every Factor call standing up and tearing down its own
// goroutines and workspaces). This is the traffic shape the engine
// exists for; it prints jobs/sec for both modes and the speedup.
//
//	go run ./examples/service -jobs 48 -min 256 -max 1024 -pool 8 -dratio 0.25
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro"
)

// workload is one batch item: a matrix and its right-hand side.
type workload struct {
	n   int
	a   *repro.Matrix
	b   []float64
	opt repro.Options
}

func buildWorkload(jobs, minN, maxN, share int, seed int64) []workload {
	rng := rand.New(rand.NewSource(seed))
	w := make([]workload, jobs)
	for i := range w {
		n := minN
		if maxN > minN {
			// Mixed sizes: mostly small, some large — the imbalance the
			// engine's dynamic share absorbs.
			n += rng.Intn(maxN - minN + 1)
			n -= n % 64
			if n < minN {
				n = minN
			}
		}
		b := make([]float64, n)
		for k := range b {
			b[k] = rng.NormFloat64()
		}
		w[i] = workload{
			n: n,
			a: repro.RandomMatrix(n, n, int64(1000+i)),
			b: b,
			opt: repro.Options{
				Block: 64, Workers: share,
				Scheduler: repro.ScheduleHybrid, DynamicRatio: 0.1,
			},
		}
	}
	return w
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "service: %v\n", err)
		os.Exit(1)
	}
}

// runEngine pushes the whole batch through one resident engine.
func runEngine(work []workload, pool int, dratio float64) time.Duration {
	eng, err := repro.NewEngine(repro.EngineOptions{
		Workers: pool, MaxInflight: 2 * pool, DynamicRatio: dratio,
	})
	check(err)
	defer eng.Close()

	ctx := context.Background()
	start := time.Now()
	jobs := make([]*repro.EngineJob, len(work))
	for i, w := range work {
		j, err := eng.Submit(ctx, repro.FactorWork(w.a), w.opt) // blocks at the admission bound
		check(err)
		jobs[i] = j
	}
	for i, j := range jobs {
		check(j.Wait())
		b := work[i].b
		bm := &repro.Matrix{Rows: len(b), Cols: 1, Stride: len(b), Data: b}
		sj, err := eng.Submit(ctx, repro.SolveWork(j.Factorization(), bm), work[i].opt)
		check(err)
		check(sj.Wait())
		if r := repro.SolveResidual(work[i].a, sj.SolutionMatrix().Col(0), b); r > 1e-9 {
			check(fmt.Errorf("job %d residual %g", i, r))
		}
	}
	return time.Since(start)
}

// runSpawn is the baseline: the same concurrency (inflight bound), but
// every call spawns its own workers and tears them down.
func runSpawn(work []workload, pool int) time.Duration {
	sem := make(chan struct{}, 2*pool)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(work))
	for i := range work {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			w := work[i]
			f, err := repro.Factor(w.a, w.opt)
			if err != nil {
				errs[i] = err
				return
			}
			x, err := f.Solve(w.b)
			if err != nil {
				errs[i] = err
				return
			}
			if r := repro.SolveResidual(w.a, x, w.b); r > 1e-9 {
				errs[i] = fmt.Errorf("residual %g", r)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		check(err)
	}
	return time.Since(start)
}

func main() {
	jobs := flag.Int("jobs", 32, "batch size")
	minN := flag.Int("min", 256, "smallest matrix dimension")
	maxN := flag.Int("max", 1024, "largest matrix dimension")
	pool := flag.Int("pool", 4, "resident pool size / baseline concurrency")
	share := flag.Int("share", 2, "static worker share requested per job")
	dratio := flag.Float64("dratio", 0.25, "inter-job dynamic ratio")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	work := buildWorkload(*jobs, *minN, *maxN, *share, *seed)
	var cells int
	for _, w := range work {
		cells += w.n * w.n
	}
	fmt.Printf("batch: %d factor+solve jobs, %d..%d, %.1f MB of matrices\n",
		len(work), *minN, *maxN, float64(cells)*8/1e6)

	spawn := runSpawn(work, *pool)
	fmt.Printf("spawn-per-call : %8.1f ms  %6.2f jobs/s\n",
		spawn.Seconds()*1e3, float64(len(work))/spawn.Seconds())

	resident := runEngine(work, *pool, *dratio)
	fmt.Printf("resident engine: %8.1f ms  %6.2f jobs/s  (%.2fx)\n",
		resident.Seconds()*1e3, float64(len(work))/resident.Seconds(),
		spawn.Seconds()/resident.Seconds())
}
