package repro_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"strings"

	"repro"
)

// Factor a matrix with hybrid static/dynamic CALU, check the backward
// error, solve a linear system and compare with sequential GEPP. The
// graph's dataflow fixes the arithmetic, so fully static and fully
// dynamic scheduling give the same factors bit for bit.
func Example() {
	const n = 256
	a := repro.RandomMatrix(n, n, 42)

	// The paper's recommended configuration: block cyclic layout,
	// hybrid scheduling with a 10% dynamic share.
	opt := repro.Options{
		Layout:       repro.LayoutBlockCyclic,
		Block:        32,
		Workers:      4,
		Scheduler:    repro.ScheduleHybrid,
		DynamicRatio: 0.1,
	}
	f, err := repro.Factor(a, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tasks: %d total, %d static, %d dynamic\n",
		f.Stats.Total, f.Stats.StaticTask, f.Stats.DynTask)
	fmt.Println("leading pivots:", f.Perm[:4])
	fmt.Println("residual < 1e-12:", repro.Residual(a, f) < 1e-12)

	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("solve residual < 1e-12:", repro.SolveResidual(a, x, b) < 1e-12)

	static, dynamic := opt, opt
	static.Scheduler = repro.ScheduleStatic
	dynamic.Scheduler = repro.ScheduleDynamic
	for _, o := range []repro.Options{static, dynamic} {
		g, err := repro.Factor(a, o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v gives the same factors: %v\n", o.Scheduler, sameLU(f, g))
	}

	ref, err := repro.ReferenceLU(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reference GEPP residual < 1e-12:", repro.Residual(a, ref) < 1e-12)
	// Output:
	// tasks: 148 total, 125 static, 23 dynamic
	// leading pivots: [117 196 125 120]
	// residual < 1e-12: true
	// solve residual < 1e-12: true
	// static gives the same factors: true
	// dynamic gives the same factors: true
	// reference GEPP residual < 1e-12: true
}

// sameLU reports whether f and g have the same pivots and factors.
func sameLU(f, g *repro.Factorization) bool {
	return slices.Equal(f.Perm, g.Perm) && slices.Equal(f.L.Data, g.L.Data) &&
		slices.Equal(f.U.Data, g.U.Data)
}

// The paper's three storage layouts factor the same matrix through
// different task graphs. Under the hybrid rule the tasks of the first
// 90% of the block columns are pinned to their owners and the rest go
// to the shared queue.
func ExampleFactor() {
	a := repro.RandomMatrix(256, 256, 7)
	for _, opt := range []repro.Options{
		{Layout: repro.LayoutColMajor},
		{Layout: repro.LayoutBlockCyclic},
		{Layout: repro.LayoutTwoLevel},
	} {
		opt.Block, opt.Workers = 32, 4
		opt.Scheduler, opt.DynamicRatio = repro.ScheduleHybrid, 0.1
		f, err := repro.Factor(a, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5v %4d tasks, %4d static, residual < 1e-12: %v\n",
			opt.Layout, f.Stats.Total, f.Stats.StaticTask, repro.Residual(a, f) < 1e-12)
	}
	// Output:
	// CM     114 tasks,   98 static, residual < 1e-12: true
	// BCL    148 tasks,  125 static, residual < 1e-12: true
	// 2l-BL  226 tasks,  189 static, residual < 1e-12: true
}

// Solve one system with CALU, the MKL-style GEPP baseline and the
// PLASMA-style incremental-pivoting baseline. The paper's Figures 16
// and 17 compare their speed; here all three find the same solution.
func Example_linsolve() {
	const n = 320
	a := repro.RandomMatrix(n, n, 7)
	// A manufactured solution x = (1, -1, 1, -1, ...) and b = A x.
	want := make([]float64, n)
	for i := range want {
		want[i] = 1 - 2*float64(i%2)
	}
	b := make([]float64, n)
	for j, xj := range want {
		for i, aij := range a.Col(j) {
			b[i] += aij * xj
		}
	}
	report := func(method string, x []float64, err error) {
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		for i := range x {
			worst = math.Max(worst, math.Abs(x[i]-want[i]))
		}
		fmt.Printf("%-27s residual < 1e-12: %v, error < 1e-9: %v\n",
			method, repro.SolveResidual(a, x, b) < 1e-12, worst < 1e-9)
	}

	opt := repro.Options{Block: 32, Workers: 4, Scheduler: repro.ScheduleHybrid, DynamicRatio: 0.1}
	f, err := repro.Factor(a, opt)
	if err != nil {
		log.Fatal(err)
	}
	x, err := f.Solve(b)
	report("CALU, hybrid 10% dynamic", x, err)

	g, err := repro.FactorGEPP(a, opt)
	if err != nil {
		log.Fatal(err)
	}
	x, err = g.Solve(b)
	report("GEPP (MKL-style)", x, err)

	x, err = repro.SolveIncPiv(a, b, opt)
	report("incremental pivoting", x, err)
	// Output:
	// CALU, hybrid 10% dynamic    residual < 1e-12: true, error < 1e-9: true
	// GEPP (MKL-style)            residual < 1e-12: true, error < 1e-9: true
	// incremental pivoting        residual < 1e-12: true, error < 1e-9: true
}

// SolveMany solves for many right-hand sides at once: a blocked
// forward and backward sweep of triangular-solve and GEMM tasks, run
// by the same schedulers as the factorization.
func ExampleFactorization_SolveMany() {
	const n, nrhs = 256, 8
	a := repro.RandomMatrix(n, n, 3)
	f, err := repro.Factor(a, repro.Options{Block: 32, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	b := repro.NewMatrix(n, nrhs)
	for j := 0; j < nrhs; j++ {
		col := b.Col(j)
		for i := range col {
			col[i] = float64((i + j) % 7)
		}
	}
	x, err := f.SolveMany(b, repro.Options{Block: 32, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for j := 0; j < nrhs; j++ {
		worst = math.Max(worst, repro.SolveResidual(a, x.Col(j), b.Col(j)))
	}
	fmt.Printf("X is %dx%d, every residual < 1e-12: %v\n", x.Rows, x.Cols, worst < 1e-12)
	// Output:
	// X is 256x8, every residual < 1e-12: true
}

// Tiled Cholesky of a symmetric positive definite matrix, under the
// same layouts and hybrid scheduling as CALU.
func ExampleFactorCholesky() {
	const n = 192
	a := repro.RandomSPD(n, 5)
	f, err := repro.FactorCholesky(a, repro.Options{
		Layout: repro.LayoutTwoLevel, Block: 32, Workers: 4,
		Scheduler: repro.ScheduleHybrid, DynamicRatio: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tasks: %d, residual < 1e-12: %v\n", f.Stats.Total, repro.CholeskyResidual(a, f) < 1e-12)

	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("solve residual < 1e-12:", repro.SolveResidual(a, x, b) < 1e-12)
	// Output:
	// tasks: 56, residual < 1e-12: true
	// solve residual < 1e-12: true
}

// The engine runs many jobs on one worker pool, each job on a static
// share of it. Every job kind is a Work value
// submitted the same way, and Result holds the kind's result. A job's
// factors are the ones a one-shot run at its granted share computes.
func ExampleNewEngine() {
	eng, err := repro.NewEngine(repro.EngineOptions{Workers: 4, MaxInflight: 16})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	run := func(w repro.EngineWork, opt repro.Options) (result any, granted int) {
		job, err := eng.Submit(ctx, w, opt)
		if err != nil {
			log.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			log.Fatal(err)
		}
		return job.Result(), job.Granted()
	}

	const n = 256
	a := repro.RandomMatrix(n, n, 1)
	opt := repro.Options{Block: 32, Workers: 2, Scheduler: repro.ScheduleHybrid, DynamicRatio: 0.1}
	res, granted := run(repro.FactorWork(a), opt)
	f := res.(*repro.Factorization)
	fmt.Println("granted workers:", granted)
	fmt.Println("residual < 1e-12:", repro.Residual(a, f) < 1e-12)
	opt.Workers = granted
	one, err := repro.Factor(a, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same factors as one-shot Factor:", sameLU(f, one))

	// Solves ride the same pool; b is n x nrhs.
	b := repro.RandomMatrix(n, 4, 2)
	res, _ = run(repro.SolveWork(f, b), repro.Options{Block: 32, Workers: 2})
	x := res.(*repro.Solution).X
	want, err := f.SolveMany(b, repro.Options{Block: 32, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same solution as one-shot SolveMany:", slices.Equal(x.Data, want.Data))

	spd := repro.RandomSPD(128, 3)
	res, _ = run(repro.CholeskyWork(spd), repro.Options{Block: 32, Workers: 2})
	fmt.Println("Cholesky residual < 1e-12:",
		repro.CholeskyResidual(spd, res.(*repro.CholeskyFactorization)) < 1e-12)

	eng.Close()
	_, err = eng.Submit(ctx, repro.FactorWork(a), opt)
	fmt.Println("closed engine refuses work:", errors.Is(err, repro.ErrEngineClosed))
	// Output:
	// granted workers: 2
	// residual < 1e-12: true
	// same factors as one-shot Factor: true
	// same solution as one-shot SolveMany: true
	// Cholesky residual < 1e-12: true
	// closed engine refuses work: true
}

func ExampleExperimentIDs() {
	fmt.Println(strings.Join(repro.ExperimentIDs(), " "))
	// Output:
	// fig1 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 table1 thm1 exascale help
}

// Section 7's projection: from the measured 48-core run, the smallest
// dynamic share Theorem 1 allows as the core count and its noise grow.
func ExampleRunExperiment() {
	out, err := repro.RunExperiment("exascale", 0.3, 1)
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	fmt.Println(lines[0])
	for _, row := range lines[3:6] {
		cells := strings.Fields(row)
		fmt.Printf("%s cores, %s noise: at least %s dynamic\n", cells[0], cells[1], cells[3])
	}
	// Output:
	// == exascale: projected minimum dynamic share (weak scaling from the measured 48-core run) ==
	// 48 cores, 1.0x noise: at least 60.9% dynamic
	// 192 cores, 2.0x noise: at least 100.0% dynamic
	// 768 cores, 4.0x noise: at least 100.0% dynamic
}
