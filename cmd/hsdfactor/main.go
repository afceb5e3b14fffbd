// Command hsdfactor factors a random matrix with CALU on this machine
// (real arithmetic, goroutine workers) and reports throughput and the
// backward error. It is the quickest way to see the library do real
// work:
//
//	hsdfactor -n 2048 -b 64 -workers 4 -layout bcl -sched hybrid -dratio 0.1
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/layout"
)

func main() {
	n := flag.Int("n", 1024, "matrix dimension")
	b := flag.Int("b", 64, "block size")
	workers := flag.Int("workers", 4, "worker goroutines")
	layoutName := flag.String("layout", "bcl", "layout: cm | bcl | 2l")
	schedName := flag.String("sched", "hybrid", "scheduler: static | dynamic | hybrid")
	dratio := flag.Float64("dratio", 0.1, "dynamic fraction for the hybrid scheduler")
	seed := flag.Int64("seed", 1, "matrix seed")
	solve := flag.Bool("solve", true, "also solve A x = b and report the residual")
	flag.Parse()

	opt := repro.Options{
		Block:        *b,
		Workers:      *workers,
		DynamicRatio: *dratio,
	}
	var err error
	if opt.Layout, err = layout.ParseKind(*layoutName); err == nil {
		opt.Scheduler, err = core.ParseScheduler(*schedName)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hsdfactor: %v\n", err)
		os.Exit(2)
	}

	a := repro.RandomMatrix(*n, *n, *seed)
	f, err := repro.Factor(a, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hsdfactor: %v\n", err)
		os.Exit(1)
	}
	flops := 2.0 / 3.0 * float64(*n) * float64(*n) * float64(*n)
	secs := f.Makespan.Seconds()
	fmt.Printf("CALU %s/%s  n=%d b=%d workers=%d\n", *layoutName, *schedName, *n, *b, *workers)
	fmt.Printf("  time        %.3fs (%.2f Gflop/s)\n", secs, flops/secs/1e9)
	fmt.Printf("  tasks       %d (%d static, %d dynamic)\n", f.Stats.Total, f.Stats.StaticTask, f.Stats.DynTask)
	fmt.Printf("  dequeues    %d static, %d dynamic, %d steals, %d migrated\n",
		f.Counters.DequeueStatic, f.Counters.DequeueDynamic, f.Counters.Steals, f.Counters.Mismatches)
	fmt.Printf("  ||PA-LU||   %.2e (normalized)\n", repro.Residual(a, f))
	if *solve {
		rhs := make([]float64, *n)
		for i := range rhs {
			rhs[i] = 1
		}
		x, err := f.Solve(rhs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hsdfactor: solve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  ||Ax-b||    %.2e (normalized)\n", repro.SolveResidual(a, x, rhs))
	}
}
