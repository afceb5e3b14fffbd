// Linear-system workbench: solve the same dense system with all three
// factorization engines the repository implements — CALU (the paper's
// algorithm), the MKL-style GEPP baseline and the PLASMA-style
// incremental-pivoting baseline — and compare accuracy and structure.
// This mirrors the motivation of the paper's introduction: many
// applications spend their time inside exactly this routine.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	const n = 640

	a := repro.RandomMatrix(n, n, 7)
	// Manufactured solution: x_true = (1, -1, 1, -1, ...).
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = 1 - 2*float64(i%2)
	}
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := 0; i < n; i++ {
			b[i] += col[i] * xTrue[j]
		}
	}
	maxErr := func(x []float64) float64 {
		e := 0.0
		for i := range x {
			e = math.Max(e, math.Abs(x[i]-xTrue[i]))
		}
		return e
	}

	// 1. CALU with hybrid scheduling (the paper's contribution).
	f, err := repro.Factor(a, repro.Options{
		Layout: repro.LayoutBlockCyclic, Block: 64, Workers: 4,
		Scheduler: repro.ScheduleHybrid, DynamicRatio: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	x1, err := f.Solve(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CALU hybrid(10%%):      residual %.2e, max error %.2e, %v\n",
		repro.SolveResidual(a, x1, b), maxErr(x1), f.Makespan)

	// 1b. The same solve through the blocked multi-RHS graph: many
	// right-hand sides at once, GEMM carrying the flops, same hybrid
	// scheduling machinery as the factorization.
	const nrhs = 8
	bm := repro.NewMatrix(n, nrhs)
	for j := 0; j < nrhs; j++ {
		copy(bm.Col(j), b)
	}
	xm, err := f.SolveMany(bm, repro.Options{
		Block: 64, Workers: 4, Scheduler: repro.ScheduleHybrid, DynamicRatio: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CALU blocked solve:    residual %.2e, max error %.2e (%d RHS at once)\n",
		repro.SolveResidual(a, xm.Col(nrhs-1), b), maxErr(xm.Col(0)), nrhs)

	// 2. MKL-style blocked GEPP (sequential panel on the critical path).
	g, err := repro.FactorGEPP(a, repro.Options{Block: 64, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	x2, err := g.Solve(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MKL-style GEPP:        residual %.2e, max error %.2e, %v\n",
		repro.SolveResidual(a, x2, b), maxErr(x2), g.Makespan)

	// 3. PLASMA-style incremental pivoting (panel off the critical path,
	// weaker pivoting).
	x3, err := repro.SolveIncPiv(a, b, repro.Options{Block: 64, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PLASMA-style incpiv:   residual %.2e, max error %.2e\n",
		repro.SolveResidual(a, x3, b), maxErr(x3))

	fmt.Println("\nAll three engines agree; the paper's point is about their parallel behaviour,")
	fmt.Println("which `hsdbench -exp fig16` / `fig17` reproduce on the simulated machines.")
}
