package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
	"repro/internal/sched"
)

// randomOrder is a one-worker sched.Policy that draws a random key for
// each task as it becomes ready and runs the ready task of least key
// next, so one execution is one random topological order of the graph.
// A task that drew a large key waits while tasks readied after it run,
// which is what reverses the two ends of a missing edge.
type randomOrder struct {
	rng   *rand.Rand
	ready []*dag.Task
	key   []float64
}

func (p *randomOrder) Name() string             { return "random" }
func (p *randomOrder) Reset(*dag.Graph, int)    { p.ready, p.key = p.ready[:0], p.key[:0] }
func (p *randomOrder) Help(int) *dag.Task       { return nil }
func (p *randomOrder) Counters() sched.Counters { return sched.Counters{} }
func (p *randomOrder) Ready(_ int, t *dag.Task) int {
	p.ready = append(p.ready, t)
	p.key = append(p.key, p.rng.Float64())
	return sched.AnyWorker
}

func (p *randomOrder) Next(int) *dag.Task {
	if len(p.ready) == 0 {
		return nil
	}
	i := 0
	for j, k := range p.key {
		if k < p.key[i] {
			i = j
		}
	}
	t, last := p.ready[i], len(p.ready)-1
	p.ready[i], p.key[i] = p.ready[last], p.key[last]
	p.ready, p.key = p.ready[:last], p.key[:last]
	return t
}

// orderJob builds a fresh graph over fresh storage and returns it with
// the function that reads the run's result as a flat slice.
type orderJob func() (*dag.Graph, func(rt.Result) []float64)

func luValues(f *Factorization) []float64 {
	out := append(append([]float64(nil), f.L.Data...), f.U.Data...)
	for _, p := range f.Perm {
		out = append(out, float64(p))
	}
	return out
}

// TestRandomReadyOrdersMatchParallelRun runs every graph builder's
// graph serially in 64 seeded random ready orders and requires the bits
// of a parallel run. A missing edge lets some order run a task before
// the data it reads is final, so it fails here deterministically
// instead of by race luck.
func TestRandomReadyOrdersMatchParallelRun(t *testing.T) {
	const n, orders = 200, 64
	opt := Options{Block: 16, Workers: 4, Scheduler: ScheduleHybrid, DynamicRatio: 0.3}
	opt.fill()
	rng := rand.New(rand.NewSource(5))
	a := mat.Random(n, n, rng)
	spd := RandomSPD(n, 6)
	b := mat.Random(n, 3, rng)
	lu, err := Factor(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := FactorCholesky(spd, opt)
	if err != nil {
		t.Fatal(err)
	}

	calu := func(kind layout.Kind) orderJob {
		return func() (*dag.Graph, func(rt.Result) []float64) {
			o := opt
			o.Layout = kind
			job, err := PrepareFactor(a, o)
			if err != nil {
				t.Fatal(err)
			}
			return job.Graph(), func(res rt.Result) []float64 { return luValues(job.Finish(res)) }
		}
	}
	solve := func(prepare func(*mat.Dense, Options) (*SolveJob, error)) orderJob {
		return func() (*dag.Graph, func(rt.Result) []float64) {
			job, err := prepare(b, opt)
			if err != nil {
				t.Fatal(err)
			}
			return job.Graph(), func(res rt.Result) []float64 { return job.Finish(res).X.Data }
		}
	}
	cases := []struct {
		name string
		job  orderJob
	}{
		{"CALU/CM", calu(layout.CM)},
		{"CALU/BCL", calu(layout.BCL)},
		{"CALU/2l-BL", calu(layout.TwoLevel)},
		{"Cholesky", func() (*dag.Graph, func(rt.Result) []float64) {
			job, err := PrepareCholesky(spd, opt)
			if err != nil {
				t.Fatal(err)
			}
			return job.Graph(), func(res rt.Result) []float64 { return job.Finish(res).L.Data }
		}},
		{"GEPP", func() (*dag.Graph, func(rt.Result) []float64) {
			l := layout.New(layout.CM, a, opt.Block, layout.NewGrid(opt.Workers))
			gg := dag.BuildGEPP(l)
			job := luJob(opt, gg.Graph, l, gg.StepSwaps)
			return job.Graph(), func(res rt.Result) []float64 { return luValues(job.Finish(res)) }
		}},
		{"IncPiv", func() (*dag.Graph, func(rt.Result) []float64) {
			l := layout.New(layout.TwoLevel, a, opt.Block, layout.NewGrid(opt.Workers))
			return dag.BuildIncPiv(l).Graph, func(rt.Result) []float64 { return l.ToDense().Data }
		}},
		{"LU solve", solve(lu.PrepareSolve)},
		{"Cholesky solve", solve(chol.PrepareSolve)},
	}
	for _, c := range cases {
		g, values := c.job()
		res, err := rt.Run(g, opt.Policy(), rt.Options{Workers: opt.Workers})
		if err != nil {
			t.Fatalf("%s: parallel run: %v", c.name, err)
		}
		want := values(res)
		for seed := int64(0); seed < orders; seed++ {
			g, values := c.job()
			res, err := rt.Run(g, &randomOrder{rng: rand.New(rand.NewSource(seed))}, rt.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: order %d: %v", c.name, seed, err)
			}
			for i, v := range values(res) {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("%s: order %d: value %d is %x, parallel run %x",
						c.name, seed, i, math.Float64bits(v), math.Float64bits(want[i]))
				}
			}
		}
	}
}
