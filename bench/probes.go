package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/piv"
	"repro/internal/rt"
	"repro/internal/sched"
)

func view(a *mat.Dense) kernel.View {
	return kernel.View{Rows: a.Rows, Cols: a.Cols, Stride: a.Stride, Data: a.Data}
}

// timeMedian is the median wall time in seconds of five calls of f;
// prep, when not nil, runs off the clock before each.
func timeMedian(prep, f func()) float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// probes measures each layer through its public functions on fixed
// shapes. The values do not depend on the workload, so every traced run
// reports them; together they take well under a second.
func probes(layer values, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w := loadWidth()

	// kernel: the square GEMM of BenchmarkKernelGemm512, the b=64
	// group-3 S-task update shape, a b=64 triangular solve, and a tall
	// panel factorization.
	gemm := func(m, n, k, reps int) float64 {
		a, b, c := mat.Random(m, k, rng), mat.Random(k, n, rng), mat.Random(m, n, rng)
		t := timeMedian(nil, func() {
			for r := 0; r < reps; r++ {
				kernel.Gemm(view(c), view(a), view(b))
			}
		})
		return 2 * float64(m) * float64(n) * float64(k) * float64(reps) / t / 1e9
	}
	layer["kernel.gemm_gflops_512"] = gemm(512, 512, 512, 1)
	layer["kernel.gemm_gflops_update"] = gemm(192, 64, 64, 100)
	{
		l, b := mat.Random(64, 64, rng), mat.Random(64, 64, rng)
		const reps = 200
		t := timeMedian(nil, func() {
			for r := 0; r < reps; r++ {
				kernel.TrsmLowerLeftUnit(view(l), view(b))
			}
		})
		layer["kernel.trsm_gflops_64"] = 64.0 * 64 * 64 * reps / t / 1e9
	}
	panel := mat.Random(2048, 64, rng)
	{
		work := panel.Clone()
		pivots := make([]int, 64)
		var err error
		t := timeMedian(func() { work.CopyFrom(panel) }, func() {
			err = kernel.RecursiveLU(view(work), pivots)
		})
		if err != nil {
			return fmt.Errorf("kernel.RecursiveLU: %w", err)
		}
		layer["kernel.getrf_gflops_panel"] = luFlops(2048, 64) / t / 1e9
	}

	// piv: one tournament leaf on a 2048 x 64 chunk.
	{
		ids := make([]int, panel.Rows)
		for i := range ids {
			ids[i] = i
		}
		var err error
		layer["piv.select_s"] = timeMedian(nil, func() { _, err = piv.Select(panel, ids, 64) })
		if err != nil {
			return fmt.Errorf("piv.Select: %w", err)
		}
	}

	// layout: block serialization of a 512 x 512 BCL layout, the format
	// factors cross the wire in.
	a512 := mat.Random(512, 512, rng)
	{
		lay := layout.New(layout.BCL, a512, luBlock, layout.NewGrid(1))
		var n int
		t := timeMedian(nil, func() { n = len(layout.Encode(lay)) })
		layer["layout.encode_mb_per_s"] = float64(n) / 1e6 / t
	}

	// dag: fusing eight n=96 factorization graphs, as the engine's
	// express lane does with a waiting burst.
	smallOpt := hybridOptions(32, 1)
	{
		var parts []dag.FusePart
		for i := 0; i < 8; i++ {
			job, err := core.PrepareFactor(mat.Random(96, 96, rng), smallOpt)
			if err != nil {
				return err
			}
			parts = append(parts, dag.FusePart{G: job.Graph(), Label: fmt.Sprint("lu96-", i)})
		}
		layer["dag.fuse_s"] = timeMedian(nil, func() { dag.Fuse(parts...) })
	}

	// rt: 10k no-op tasks through rt.Run, so dispatch is the whole cost.
	{
		const width, depth = 250, 40
		g := &dag.Graph{Name: "dispatch-probe"}
		for d := 0; d < depth; d++ {
			for x := 0; x < width; x++ {
				id := int32(d*width + x)
				t := &dag.Task{ID: id, Kind: dag.S, Owner: x, Static: x%2 == 0, Prio: int64(id)}
				if d > 0 {
					up := g.Tasks[(d-1)*width+x]
					up.Outs = append(up.Outs, id)
					t.NumDeps = 1
				}
				g.Tasks = append(g.Tasks, t)
			}
		}
		var err error
		t := timeMedian(nil, func() { _, err = rt.Run(g, sched.NewHybrid(), rt.Options{Workers: w}) })
		if err != nil {
			return fmt.Errorf("rt.Run: %w", err)
		}
		layer["rt.dispatch_tasks_per_s"] = width * depth / t
	}

	// core: a blocked multi-RHS solve, n=1024, nrhs=32.
	{
		a := mat.Random(1024, 1024, rng)
		opt := hybridOptions(luBlock, w)
		f, err := core.Factor(a, opt)
		if err != nil {
			return err
		}
		b := mat.Random(1024, 32, rng)
		t := timeMedian(nil, func() { _, err = f.SolveMany(b, opt) })
		if err != nil {
			return fmt.Errorf("core.SolveMany: %w", err)
		}
		layer["core.solve_gflops"] = solveFlops(1024, 32) / t / 1e9
	}

	// engine: small-LU jobs per second through a resident pool, over
	// the same list factored by one spawn-per-call core.Factor after
	// another.
	{
		var list []*mat.Dense
		for i := 0; i < 16; i++ {
			list = append(list, mat.Random(64+32*(i%2), 64+32*(i%2), rng))
		}
		eng, err := engine.New(engine.Options{Workers: w, DynamicRatio: 0.25})
		if err != nil {
			return err
		}
		defer eng.Close()
		resident := timeMedian(nil, func() {
			jobs := make([]*engine.Job, 0, len(list))
			for _, a := range list {
				j, e := eng.SubmitFactor(a, smallOpt)
				if e != nil {
					err = e
					return
				}
				jobs = append(jobs, j)
			}
			for _, j := range jobs {
				if e := j.Wait(); e != nil {
					err = e
				}
			}
		})
		spawn := timeMedian(nil, func() {
			for _, a := range list {
				if _, e := core.Factor(a, smallOpt); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return fmt.Errorf("engine probe: %w", err)
		}
		layer["engine.vs_spawn_ratio"] = spawn / resident
	}

	// serve: what the standard library needs to decode one n=512 factor
	// request into a struct of the handler's shape — a computed twin of
	// the decode inside serve, which cannot be timed from outside.
	{
		body := factorBody(a512)
		var err error
		layer["serve.json_decode_s"] = timeMedian(nil, func() {
			var req struct {
				Rows, Cols int
				Data       []float64
				Block      int
			}
			err = json.Unmarshal(body, &req)
		})
		if err != nil {
			return err
		}
	}

	// cluster: the replication wire format on an n=512 factorization.
	{
		f, err := core.Factor(a512, hybridOptions(luBlock, 1))
		if err != nil {
			return err
		}
		var wire []byte
		layer["cluster.wire_encode_s"] = timeMedian(nil, func() { wire, err = cluster.EncodeFactorization(f, nil) })
		if err != nil {
			return err
		}
		layer["cluster.wire_decode_s"] = timeMedian(nil, func() { _, _, err = cluster.DecodeFactorization(wire) })
		if err != nil {
			return err
		}
		layer["cluster.wire_mb"] = float64(len(wire)) / 1e6
	}
	return nil
}
