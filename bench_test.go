// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (run `go test -bench=. -benchmem`), plus kernel
// and end-to-end factorization benchmarks. The figure benchmarks run
// the same generators as `cmd/hsdfigures` at a reduced scale so the whole
// suite completes in minutes; `hsdfigures -exp <id>` reproduces them at
// paper scale. Each figure benchmark reports the headline metric of its
// figure as a custom unit next to ns/op.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// benchScale keeps figure regeneration fast inside `go test -bench`.
const benchScale = 0.4

// runExperiment executes one experiment generator per iteration and
// reports a headline metric extracted from the resulting table.
func runExperimentBench(b *testing.B, id string, metric func(*experiments.Table) (float64, string)) {
	b.Helper()
	var tbl *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.Run(id, benchScale, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil {
		v, unit := metric(tbl)
		b.ReportMetric(v, unit)
	}
}

// cell parses the numeric prefix of a table cell ("123.4", "+56.7%",
// "95% of makespan").
func cell(tbl *experiments.Table, row, col int) float64 {
	s := strings.TrimPrefix(strings.TrimSpace(tbl.Rows[row][col]), "+")
	end := 0
	for end < len(s) && (s[end] == '-' || s[end] == '.' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		panic(fmt.Sprintf("bench: unparseable cell %q", tbl.Rows[row][col]))
	}
	return v
}

func lastRow(tbl *experiments.Table) int { return len(tbl.Rows) - 1 }

// ---------------------------------------------------------------------
// One benchmark per figure/table.

func BenchmarkFig01StaticProfile(b *testing.B) {
	runExperimentBench(b, "fig1", func(t *experiments.Table) (float64, string) {
		return cell(t, 2, 1), "idle%"
	})
}

func BenchmarkFig04HybridProfile(b *testing.B) {
	runExperimentBench(b, "fig4", func(t *experiments.Table) (float64, string) {
		return cell(t, 2, 1), "idle%"
	})
}

func BenchmarkFig06IntelBCL(b *testing.B) {
	runExperimentBench(b, "fig6", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 2), "h10-Gflops"
	})
}

func BenchmarkFig07AMDBCL(b *testing.B) {
	runExperimentBench(b, "fig7", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 2), "h10-Gflops"
	})
}

func BenchmarkFig08AMDImprovementBCL(b *testing.B) {
	runExperimentBench(b, "fig8", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 2), "h10-vs-static-%"
	})
}

func BenchmarkFig09Intel2lBL(b *testing.B) {
	runExperimentBench(b, "fig9", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 2), "h10-Gflops"
	})
}

func BenchmarkFig10AMD2lBL(b *testing.B) {
	runExperimentBench(b, "fig10", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 2), "h10-Gflops"
	})
}

func BenchmarkFig11AMDImprovement2lBL(b *testing.B) {
	runExperimentBench(b, "fig11", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 3), "h10-vs-dynamic-%"
	})
}

func BenchmarkFig12IntelSummary(b *testing.B) {
	runExperimentBench(b, "fig12", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 2), "BCL-h10-Gflops"
	})
}

func BenchmarkFig13AMDSummary(b *testing.B) {
	runExperimentBench(b, "fig13", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 2), "BCL-h10-Gflops"
	})
}

func BenchmarkFig14DynamicCMProfile(b *testing.B) {
	runExperimentBench(b, "fig14", func(t *experiments.Table) (float64, string) {
		// "90% of workers permanently idle at" row, % of makespan.
		return cell(t, 3, 1), "idle-point-%"
	})
}

func BenchmarkFig15Hybrid2lBLProfile(b *testing.B) {
	runExperimentBench(b, "fig15", func(t *experiments.Table) (float64, string) {
		return cell(t, 2, 1), "idle%"
	})
}

func BenchmarkFig16IntelVsLibraries(b *testing.B) {
	runExperimentBench(b, "fig16", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 5), "vs-MKL-%"
	})
}

func BenchmarkFig17AMDVsLibraries(b *testing.B) {
	runExperimentBench(b, "fig17", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 5), "vs-MKL-%"
	})
}

func BenchmarkTable1DesignSpace(b *testing.B) {
	runExperimentBench(b, "table1", func(t *experiments.Table) (float64, string) {
		ok := 0.0
		for _, row := range t.Rows {
			if row[len(row)-1] == "yes" {
				ok++
			}
		}
		return ok, "cells-ok"
	})
}

func BenchmarkTheorem1Validation(b *testing.B) {
	runExperimentBench(b, "thm1", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 4), "bound-fs"
	})
}

func BenchmarkExascaleProjection(b *testing.B) {
	runExperimentBench(b, "exascale", func(t *experiments.Table) (float64, string) {
		return cell(t, lastRow(t), 3), "min-dynamic-%"
	})
}

// ---------------------------------------------------------------------
// Real-arithmetic end-to-end benchmarks on this machine.

func benchFactor(b *testing.B, kind layout.Kind, sch core.Scheduler, dratio float64) {
	b.Helper()
	const n = 512
	a := RandomMatrix(n, n, 1)
	opt := Options{Layout: kind, Block: 64, Workers: 2, Scheduler: sch, DynamicRatio: dratio}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n * n * 8))
}

func BenchmarkRealCALUStaticBCL(b *testing.B) {
	benchFactor(b, layout.BCL, core.ScheduleStatic, 0)
}

func BenchmarkRealCALUDynamicBCL(b *testing.B) {
	benchFactor(b, layout.BCL, core.ScheduleDynamic, 1)
}

func BenchmarkRealCALUHybridBCL(b *testing.B) {
	benchFactor(b, layout.BCL, core.ScheduleHybrid, 0.1)
}

func BenchmarkRealCALUHybrid2lBL(b *testing.B) {
	benchFactor(b, layout.TwoLevel, core.ScheduleHybrid, 0.1)
}

// BenchmarkBaselines times the paper's Figs 16/17 comparison on the real
// runtime: CALU (BCL, hybrid 10 % dynamic), the MKL-style GEPP baseline
// and the PLASMA-style incremental-pivoting solve, at n = 1024, b = 64,
// W = 1 and 2.
func BenchmarkBaselines(b *testing.B) {
	const n = 1024
	a := RandomMatrix(n, n, 1)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	methods := []struct {
		name string
		run  func(opt Options) error
	}{
		{"CALU", func(opt Options) error { _, err := Factor(a, opt); return err }},
		{"GEPP", func(opt Options) error { _, err := FactorGEPP(a, opt); return err }},
		{"IncPiv", func(opt Options) error { _, err := SolveIncPiv(a, rhs, opt); return err }},
	}
	for _, m := range methods {
		for _, w := range []int{1, 2} {
			opt := Options{Layout: layout.BCL, Block: 64, Workers: w, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.1}
			b.Run(fmt.Sprintf("%s/W=%d", m.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := m.run(opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Data-movement microbenchmarks: the copies around a factorization, in
// MB/s of matrix moved, on the benchmark's two LU shapes (BCL, b=64)
// over the grids of 1, 2 and 4 workers.

func benchLayoutShapes(b *testing.B, op func(b *testing.B, a *mat.Dense, g layout.Grid)) {
	for _, s := range [][2]int{{2048, 2048}, {8192, 256}} {
		a := RandomMatrix(s[0], s[1], 1)
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%dx%d/W%d", s[0], s[1], w), func(b *testing.B) {
				b.SetBytes(int64(8 * s[0] * s[1]))
				op(b, a, layout.NewGrid(w))
			})
		}
	}
}

func BenchmarkLayoutPack(b *testing.B) {
	benchLayoutShapes(b, func(b *testing.B, a *mat.Dense, g layout.Grid) {
		for i := 0; i < b.N; i++ {
			layout.New(layout.BCL, a, 64, g)
		}
	})
}

func BenchmarkExtractLU(b *testing.B) {
	benchLayoutShapes(b, func(b *testing.B, a *mat.Dense, g layout.Grid) {
		l := layout.New(layout.BCL, a, 64, g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.ExtractLU(l)
		}
	})
}

// BenchmarkLayoutSwaps times one U task's row interchanges: the 64
// swaps of a b=64 panel step applied to one 2048-row BCL block column.
func BenchmarkLayoutSwaps(b *testing.B) {
	l := layout.New(layout.BCL, RandomMatrix(2048, 64, 1), 64, layout.NewGrid(1))
	rng := rand.New(rand.NewSource(2))
	swaps := make([][2]int, 64)
	for t := range swaps {
		swaps[t] = [2]int{t, t + rng.Intn(2048-t)}
	}
	bytes := int64(len(swaps)) * 64 * 2 * 8
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.ApplySwaps(l, 0, swaps)
	}
	// Recorded in GB/s of row elements exchanged: the one entry of the
	// kernel JSON that is not a flop rate.
	recordBenchGFLOPS(b, float64(bytes)*float64(b.N)/b.Elapsed().Seconds()/1e9)
}

func BenchmarkLayoutEncode(b *testing.B) {
	benchLayoutShapes(b, func(b *testing.B, a *mat.Dense, g layout.Grid) {
		l := layout.New(layout.BCL, a, 64, g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			layout.Encode(l)
		}
	})
}

// ---------------------------------------------------------------------
// Kernel microbenchmarks.

func viewOf(a *mat.Dense) kernel.View {
	return kernel.View{Rows: a.Rows, Cols: a.Cols, Stride: a.Stride, Data: a.Data}
}

// benchGemm reports GFLOPS of one square C -= A*B at size n, for
// either the dispatching (packed) entry or the naive oracle — the
// before/after pair that quantifies the packed kernel layer.
func benchGemm(b *testing.B, n int, gemm func(c, a2, b2 kernel.View)) {
	b.Helper()
	a := RandomMatrix(n, n, 1)
	bb := RandomMatrix(n, n, 2)
	c := RandomMatrix(n, n, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemm(viewOf(c), viewOf(a), viewOf(bb))
	}
	b.SetBytes(3 * int64(n) * int64(n) * 8)
	gf := 2 * float64(n) * float64(n) * float64(n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOPS")
	recordBenchGFLOPS(b, gf)
}

func BenchmarkKernelGemm128(b *testing.B) { benchGemm(b, 128, kernel.Gemm) }
func BenchmarkKernelGemm256(b *testing.B) { benchGemm(b, 256, kernel.Gemm) }
func BenchmarkKernelGemm512(b *testing.B) { benchGemm(b, 512, kernel.Gemm) }

// The seed's axpy loop nest, kept as the oracle and the baseline the
// packed path is measured against.
func BenchmarkKernelGemmNaive128(b *testing.B) { benchGemm(b, 128, kernel.GemmNaive) }
func BenchmarkKernelGemmNaive512(b *testing.B) { benchGemm(b, 512, kernel.GemmNaive) }

func BenchmarkKernelGemmNT256(b *testing.B) { benchGemm(b, 256, kernel.GemmNT) }

// Sub-crossover products: the direct register-tiled small path (the
// dispatcher's choice below 32^3) against the naive axpy nest it
// replaced.
func BenchmarkKernelGemmSmall16(b *testing.B)      { benchGemm(b, 16, kernel.Gemm) }
func BenchmarkKernelGemmSmall24(b *testing.B)      { benchGemm(b, 24, kernel.Gemm) }
func BenchmarkKernelGemmSmallNaive16(b *testing.B) { benchGemm(b, 16, kernel.GemmNaive) }
func BenchmarkKernelGemmSmallNaive24(b *testing.B) { benchGemm(b, 24, kernel.GemmNaive) }

func benchTrsmLower(b *testing.B, n int, trsm func(l, x kernel.View)) {
	b.Helper()
	l := RandomMatrix(n, n, 4)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
	}
	x := RandomMatrix(n, n, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trsm(viewOf(l), viewOf(x))
	}
	b.ReportMetric(float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkKernelTrsmLower128(b *testing.B) { benchTrsmLower(b, 128, kernel.TrsmLowerLeftUnit) }
func BenchmarkKernelTrsmLower256(b *testing.B) { benchTrsmLower(b, 256, kernel.TrsmLowerLeftUnit) }
func BenchmarkKernelTrsmLowerNaive256(b *testing.B) {
	benchTrsmLower(b, 256, kernel.TrsmLowerLeftUnitNaive)
}

// benchTrsmDiag benchmarks the left-side solve-DAG diagonal kernels,
// whose triangle needs a safely nonzero diagonal.
func benchTrsmDiag(b *testing.B, n int, trsm func(t, x kernel.View)) {
	b.Helper()
	l := RandomMatrix(n, n, 4)
	for i := 0; i < n; i++ {
		l.Set(i, i, 2+l.At(i, i))
	}
	x := RandomMatrix(n, n, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trsm(viewOf(l), viewOf(x))
	}
	b.ReportMetric(float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkKernelTrsmLowerNonUnit256(b *testing.B) { benchTrsmDiag(b, 256, kernel.TrsmLowerLeft) }
func BenchmarkKernelTrsmLowerNonUnitNaive256(b *testing.B) {
	benchTrsmDiag(b, 256, kernel.TrsmLowerLeftNaive)
}
func BenchmarkKernelTrsmUpper256(b *testing.B) { benchTrsmDiag(b, 256, kernel.TrsmUpperLeft) }
func BenchmarkKernelTrsmUpperNaive256(b *testing.B) {
	benchTrsmDiag(b, 256, kernel.TrsmUpperLeftNaive)
}

// benchTri is an n x n matrix usable as either triangle of a solve: a
// dominant diagonal keeps repeated solves finite.
func benchTri(n int) *mat.Dense {
	t := RandomMatrix(n, n, 4)
	for i := 0; i < n; i++ {
		t.Set(i, i, float64(n)+t.At(i, i))
	}
	return t
}

// benchSolve times solve on a fresh copy of x per iteration (the copy
// is a few percent of the solve and the same on both sides of any
// comparison) and reports flops-per-iteration based GFLOPS.
func benchSolve(b *testing.B, flops float64, x *mat.Dense, solve func(x kernel.View)) {
	b.Helper()
	work := x.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(x)
		solve(viewOf(work))
	}
	gf := flops * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOPS")
	recordBenchGFLOPS(b, gf)
}

// BenchmarkKernelTrsmTask times the two triangular solves of a CALU
// step at b=64 on the operand extents the tasks see: task U's
// L_KK^{-1} A_KJ (unit lower, from the left, on 64 x 64 and 64 x 192)
// and task L's A_IK U_KK^{-1} (upper, from the right, on 64 x 64 and a
// grouped 192 x 64).
func BenchmarkKernelTrsmTask(b *testing.B) {
	tri := benchTri(64)
	for _, ext := range []int{64, 192} {
		flops := 64.0 * 64 * float64(ext)
		b.Run(fmt.Sprintf("U/64x%d", ext), func(b *testing.B) {
			benchSolve(b, flops, RandomMatrix(64, ext, 5), func(x kernel.View) { kernel.TrsmLowerLeftUnit(viewOf(tri), x) })
		})
		b.Run(fmt.Sprintf("L/%dx64", ext), func(b *testing.B) {
			benchSolve(b, flops, RandomMatrix(ext, 64, 5), func(x kernel.View) { kernel.TrsmUpperRight(viewOf(tri), x) })
		})
	}
}

// BenchmarkKernelRank1SubShort drives the vector helpers of the panel
// layer over every length 1..31 through a public entry: the unblocked
// backward solve on a 32 x 32 triangle updates bj[:k] for k = 31..1.
// Short lengths run mostly in the helpers' scalar tails, so a tail
// that pays an SSE/AVX transition per element shows here at once.
func BenchmarkKernelRank1SubShort(b *testing.B) {
	tri := benchTri(32)
	benchSolve(b, 32.0*32*64, RandomMatrix(32, 64, 5), func(x kernel.View) { kernel.TrsmUpperLeftNaive(viewOf(tri), x) })
}

// BenchmarkKernelUpdateTask times one merged static S task: C 1984x960
// -= A 1984x64 * B 64x960 through kernel.Gemm, a worker's step-0 update
// past the look-ahead column of a 2048x2048 factor on two workers
// (b = 64, 31 block rows by 15 block columns; lu_large's 10 % dynamic
// section leaves 14 or 13). Each A slab is packed once per mc block.
func BenchmarkKernelUpdateTask(b *testing.B) {
	const m, n, k = 1984, 960, 64
	a, bb, c := RandomMatrix(m, k, 1), RandomMatrix(k, n, 2), RandomMatrix(m, n, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel.Gemm(viewOf(c), viewOf(a), viewOf(bb))
	}
	gf := 2 * float64(m) * n * k * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOPS")
	recordBenchGFLOPS(b, gf)
}

func BenchmarkKernelRecursiveLU(b *testing.B) {
	src := RandomMatrix(512, 128, 6)
	piv := make([]int, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := src.Clone()
		b.StartTimer()
		if err := kernel.RecursiveLU(viewOf(work), piv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelGetf2(b *testing.B) {
	src := RandomMatrix(512, 64, 7)
	piv := make([]int, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := src.Clone()
		b.StartTimer()
		if err := kernel.Getf2(viewOf(work), piv); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPanel reports GFLOPS of one tall-skinny GETRF (the panel
// operator on the static section's critical path) for either the
// blocked register-tiled entry (kernel.Getrf) or the scalar seed path
// (kernel.Getf2). The two compute bit-identical pivots and values, so
// the ratio is pure panel-throughput — the quantity the hybrid
// scheduling experiments are sensitive to, since every F task gates its
// whole trailing update.
func benchPanel(b *testing.B, m, n int, factor func(kernel.View, []int) error) {
	b.Helper()
	src := RandomMatrix(m, n, 11)
	piv := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := src.Clone()
		b.StartTimer()
		if err := factor(viewOf(work), piv); err != nil {
			b.Fatal(err)
		}
	}
	flops := float64(m)*float64(n)*float64(n) - float64(n)*float64(n)*float64(n)/3
	gf := flops * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOPS")
	recordBenchGFLOPS(b, gf)
}

func BenchmarkPanelBlocked256x32(b *testing.B)  { benchPanel(b, 256, 32, kernel.Getrf) }
func BenchmarkPanelBlocked1024x32(b *testing.B) { benchPanel(b, 1024, 32, kernel.Getrf) }
func BenchmarkPanelBlocked4096x64(b *testing.B) { benchPanel(b, 4096, 64, kernel.Getrf) }
func BenchmarkPanelScalar256x32(b *testing.B)   { benchPanel(b, 256, 32, kernel.Getf2) }
func BenchmarkPanelScalar1024x32(b *testing.B)  { benchPanel(b, 1024, 32, kernel.Getf2) }
func BenchmarkPanelScalar4096x64(b *testing.B)  { benchPanel(b, 4096, 64, kernel.Getf2) }
func BenchmarkPanelRecursive4096x64(b *testing.B) {
	benchPanel(b, 4096, 64, kernel.RecursiveLU)
}

// ---------------------------------------------------------------------
// Dispatch overhead: scheduler throughput isolated from kernel time.

// dispatchBenchGraph builds depth layers of width no-op tasks, each
// depending on the same-index task of the previous layer, so readiness
// flows continuously and every completion exercises atomic dependency
// resolution plus one enqueue. Run closures are nil: the runtime's
// dispatch loop is the entire measured cost.
func dispatchBenchGraph(width, depth int) *dag.Graph {
	g := &dag.Graph{Name: "dispatch-bench"}
	for d := 0; d < depth; d++ {
		for w := 0; w < width; w++ {
			id := int32(d*width + w)
			t := &dag.Task{ID: id, Kind: dag.S, Owner: w, Static: w%2 == 0, Prio: int64(id)}
			if d > 0 {
				up := g.Tasks[(d-1)*width+w]
				up.Outs = append(up.Outs, id)
				t.NumDeps = 1
			}
			g.Tasks = append(g.Tasks, t)
		}
	}
	return g
}

// BenchmarkDispatch measures tasks/second of the real runtime on
// graphs of no-op tasks — the paper's dequeue-overhead quantity finally
// separated from kernel time — per policy at 1/4/8 workers.
func BenchmarkDispatch(b *testing.B) {
	const width, depth = 256, 40
	policies := []struct {
		name string
		mk   func() sched.Policy
	}{
		{"static", func() sched.Policy { return sched.NewStatic() }},
		{"dynamic", func() sched.Policy { return sched.NewDynamic() }},
		{"hybrid", func() sched.Policy { return sched.NewHybrid() }},
	}
	for _, pol := range policies {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", pol.name, workers), func(b *testing.B) {
				g := dispatchBenchGraph(width, depth)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rt.Run(g, pol.mk(), rt.Options{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
				tasks := float64(width*depth) * float64(b.N)
				b.ReportMetric(tasks/b.Elapsed().Seconds(), "tasks/s")
			})
		}
	}
}

// ---------------------------------------------------------------------
// Engine throughput: Factor jobs/sec on a mixed-size workload through
// the shared worker pool versus the one-shot per-call baseline, at
// increasing numbers of inflight jobs.

// engineBatch is one mixed 64..512 workload: small and large jobs side
// by side on one pool.
func engineBatch() []*mat.Dense {
	sizes := []int{64, 96, 128, 192, 256, 384, 512, 128}
	ms := make([]*mat.Dense, len(sizes))
	for i, n := range sizes {
		ms[i] = RandomMatrix(n, n, int64(100+i))
	}
	return ms
}

func engineJobOptions() core.Options {
	return core.Options{
		Block: 64, Workers: 2,
		Scheduler: core.ScheduleHybrid, DynamicRatio: 0.1,
	}
}

// reportLatencies emits jobs/s plus p50/p99 submit-to-done latency.
func reportLatencies(b *testing.B, lat []time.Duration) {
	b.Helper()
	if len(lat) == 0 {
		// Every job failed; the per-job b.Error output explains why.
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	jobs := float64(len(lat))
	b.ReportMetric(jobs/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(lat[len(lat)/2].Seconds()*1e3, "p50-ms")
	b.ReportMetric(lat[(len(lat)*99)/100].Seconds()*1e3, "p99-ms")
}

// BenchmarkEngineThroughput is the engine-versus-one-shot A/B of the
// engine's reason to exist: the same mixed workload pushed through one
// pool (admission, a static share per job) and through per-call
// rt.Run, at 1..8
// inflight jobs. The engine side must at least match the baseline's
// jobs/sec.
func BenchmarkEngineThroughput(b *testing.B) {
	batch := engineBatch()
	for _, inflight := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("engine/inflight%d", inflight), func(b *testing.B) {
			eng, err := engine.New(engine.Options{Workers: 4, MaxInflight: inflight})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			var mu sync.Mutex
			var lat []time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Latencies are recorded at each job's true completion
				// (per-job waiter), matching how the spawn baseline
				// records its own — an in-order Wait loop would charge
				// head-of-line waiting to jobs that finished early.
				var wg sync.WaitGroup
				for _, a := range batch {
					start := time.Now()
					j, err := eng.Submit(context.Background(), engine.FactorWork(a), engineJobOptions())
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := j.Wait(); err != nil {
							b.Error(err)
							return
						}
						mu.Lock()
						lat = append(lat, time.Since(start))
						mu.Unlock()
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			reportLatencies(b, lat)
		})
		b.Run(fmt.Sprintf("spawn/inflight%d", inflight), func(b *testing.B) {
			var mu sync.Mutex
			var lat []time.Duration
			sem := make(chan struct{}, inflight)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, a := range batch {
					start := time.Now()
					sem <- struct{}{}
					wg.Add(1)
					go func(a *mat.Dense) {
						defer wg.Done()
						defer func() { <-sem }()
						if _, err := core.Factor(a, engineJobOptions()); err != nil {
							b.Error(err)
							return
						}
						mu.Lock()
						lat = append(lat, time.Since(start))
						mu.Unlock()
					}(a)
				}
				wg.Wait()
			}
			b.StopTimer()
			reportLatencies(b, lat)
		})
	}
}

// reportClassLatencies emits jobs/s over the whole mix plus per-class
// p50/p99 submit-to-done latency.
func reportClassLatencies(b *testing.B, small, large []time.Duration) {
	b.Helper()
	if len(small)+len(large) == 0 {
		return
	}
	b.ReportMetric(float64(len(small)+len(large))/b.Elapsed().Seconds(), "jobs/s")
	emit := func(class string, lat []time.Duration) {
		if len(lat) == 0 {
			return
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(lat[len(lat)/2].Seconds()*1e3, class+"-p50-ms")
		b.ReportMetric(lat[(len(lat)*99)/100].Seconds()*1e3, class+"-p99-ms")
	}
	emit("small", small)
	emit("large", large)
}

// BenchmarkEngineMixedTraffic drives the two-lane admission with the
// mix it was built for: a burst of tiny factors sandwiched between two
// big ones (the express lane starts each tiny factor on its own
// one-worker share, and the second big factor starts only once the
// express lane is empty). The metric to watch is the small-class p99;
// README's "Traffic shaping" section records it.
func BenchmarkEngineMixedTraffic(b *testing.B) {
	small := make([]*mat.Dense, 12)
	for i := range small {
		small[i] = RandomMatrix(64, 64, int64(200+i))
	}
	large := []*mat.Dense{RandomMatrix(448, 448, 300), RandomMatrix(512, 512, 301)}
	eng, err := engine.New(engine.Options{Workers: 4, MaxInflight: 32})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	var mu sync.Mutex
	var latSmall, latLarge []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		submit := func(a *mat.Dense, bucket *[]time.Duration) {
			j, err := eng.Submit(context.Background(), engine.FactorWork(a), engineJobOptions())
			if err != nil {
				b.Error(err)
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := j.Wait(); err != nil {
					b.Error(err)
					return
				}
				// Latency from the engine's own clock (admission to
				// last task), not the waiter's wake-up time: with
				// the pool saturating every core, waiter goroutines
				// are descheduled for the length of whatever big
				// kernel is running and would charge that to jobs
				// that completed long before.
				mu.Lock()
				*bucket = append(*bucket, j.QueueWait()+j.Span())
				mu.Unlock()
			}()
		}
		// Big job first: in arrival order it would
		// head-of-line-block the small burst behind it — the
		// pathology the express lane removes.
		submit(large[0], &latLarge)
		for _, a := range small {
			submit(a, &latSmall)
		}
		submit(large[1], &latLarge)
		wg.Wait()
	}
	b.StopTimer()
	reportClassLatencies(b, latSmall, latLarge)
}

// ---------------------------------------------------------------------
// Triangular solve: the blocked multi-RHS solve graph versus the
// scalar substitution baseline it replaced, at n=2048 with 32
// right-hand sides — the before/after pair that quantifies the solve
// subsystem (packed-GEMM updates + task parallelism vs per-element
// scalar loops).

var (
	solveBenchOnce sync.Once
	solveBenchA    *mat.Dense
	solveBenchB    *mat.Dense
	solveBenchF    *core.Factorization
)

const (
	solveBenchN    = 2048
	solveBenchNRHS = 32
)

// solveBenchSetup factors the shared benchmark system once; both solve
// benchmarks (and the engine solve bench) reuse it so the O(n³) factor
// cost is paid a single time per `go test -bench` run.
func solveBenchSetup(b *testing.B) *core.Factorization {
	b.Helper()
	solveBenchOnce.Do(func() {
		solveBenchA = RandomMatrix(solveBenchN, solveBenchN, 31)
		solveBenchB = RandomMatrix(solveBenchN, solveBenchNRHS, 33)
		f, err := core.Factor(solveBenchA, core.Options{
			Block: 128, Workers: benchWorkers(),
			Scheduler: core.ScheduleHybrid, DynamicRatio: 0.1,
		})
		if err != nil {
			panic(err)
		}
		solveBenchF = f
	})
	return solveBenchF
}

func benchWorkers() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	return w
}

func solveFlops() float64 {
	// Forward + backward sweep: ~2 * (2 n² nrhs) flops.
	return 4 * float64(solveBenchN) * float64(solveBenchN) * float64(solveBenchNRHS)
}

// BenchmarkSolveScalar is the seed path: one scalar substitution per
// right-hand side.
func BenchmarkSolveScalar(b *testing.B) {
	f := solveBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < solveBenchNRHS; j++ {
			if _, err := f.Solve(solveBenchB.Col(j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(solveFlops()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkSolveBlocked is the blocked two-sweep solve graph on the
// same system: diagonal TRSM tasks plus packed-GEMM updates over the
// whole RHS block, scheduled across workers.
func BenchmarkSolveBlocked(b *testing.B) {
	f := solveBenchSetup(b)
	opt := core.Options{
		Block: 128, Workers: benchWorkers(),
		Scheduler: core.ScheduleHybrid, DynamicRatio: 0.1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.SolveMany(solveBenchB, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(solveFlops()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkEngineSolveThroughput pushes batches of concurrent multi-RHS
// solve jobs through the engine's pool — the solve-heavy service
// workload the solve DAG exists for — and reports jobs/s with
// submit-to-done latency percentiles.
func BenchmarkEngineSolveThroughput(b *testing.B) {
	const n, nrhs, batchJobs = 512, 8, 16
	a := RandomMatrix(n, n, 51)
	f, err := core.Factor(a, core.Options{Block: 64, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]*mat.Dense, batchJobs)
	for i := range rhs {
		rhs[i] = RandomMatrix(n, nrhs, int64(60+i))
	}
	eng, err := engine.New(engine.Options{Workers: 4, MaxInflight: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	opt := core.Options{Block: 64, Workers: 2, Scheduler: core.ScheduleHybrid, DynamicRatio: 0.1}
	var mu sync.Mutex
	var lat []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, bm := range rhs {
			start := time.Now()
			j, err := eng.Submit(context.Background(), engine.SolveWork(f, bm), opt)
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := j.Wait(); err != nil {
					b.Error(err)
					return
				}
				mu.Lock()
				lat = append(lat, time.Since(start))
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	reportLatencies(b, lat)
}

// ---------------------------------------------------------------------
// Simulator throughput (events/second of the DES engine itself).

func BenchmarkSimulatorEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.FactorSim(4000, 4000, 100, 36, 3, sim.Config{
			Machine: sim.AMDOpteron48(), Workers: 48, Layout: layout.BCL,
			Policy: sched.NewHybrid(), Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Cluster router solve fan-out: full HTTP round-trips through the
// sharded serving tier, with the key's replicas sharing the read load.

func BenchmarkRouterSolveFanout(b *testing.B) {
	c, err := harness.Start(harness.Options{Shards: 3, Replicas: 2, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const n = 128
	resp, err := http.Post(c.URL()+"/v1/factor", "application/json",
		strings.NewReader(fmt.Sprintf(`{"n":%d,"seed":3,"workers":1}`, n)))
	if err != nil {
		b.Fatal(err)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.ID == "" {
		b.Fatalf("factor: status %d id %q", resp.StatusCode, out.ID)
	}
	solveBody := fmt.Sprintf(`{"id":%q,"b":[%s]}`, out.ID, strings.Repeat("1,", n-1)+"1")

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := http.Post(c.URL()+"/v1/solve", "application/json", strings.NewReader(solveBody))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				b.Errorf("solve: status %d", r.StatusCode)
				return
			}
		}
	})
}
