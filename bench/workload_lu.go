package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
	"repro/internal/rt"
	"repro/internal/trace"
)

const (
	luBlock = 64
	// luTol bounds the normalized backward error of a factorization,
	// as a multiple of n; solveTol bounds a solve's normalized residual.
	luTol    = 1e-12
	solveTol = 1e-10
	// noiseSpin is what worker 0 loses after every task on lu_noisy:
	// sustained imbalance, the paper's delta_i.
	noiseSpin = 150 * time.Microsecond
)

// luWorkload is a closed loop with one caller: core.Factor on one m x n
// matrix, BCL, b=64, W workers, hybrid scheduling with dratio 0.1.
type luWorkload struct {
	m, n  int
	noisy bool
	// sweep adds the dynamic-ratio sweep on the real runtime (n=1024)
	// to the traced pass, with this workload's noise setting.
	sweep bool

	seed int64
	a    *mat.Dense
	ref  *core.Factorization
	// residual is the verified backward error of ref.
	residual float64
}

// hybridOptions is the configuration every op of the benchmark runs
// under: BCL, the paper's hybrid scheduler with 10% dynamic. The
// scheduler is always named: the zero value of the field is static.
func hybridOptions(block, workers int) core.Options {
	return core.Options{Layout: layout.BCL, Block: block, Workers: workers,
		Scheduler: core.ScheduleHybrid, DynamicRatio: 0.1}
}

func (l *luWorkload) options(dratio float64) core.Options {
	opt := hybridOptions(luBlock, loadWidth())
	opt.DynamicRatio = dratio
	if l.noisy {
		opt.Noise = func(worker int) time.Duration {
			if worker == 0 {
				return noiseSpin
			}
			return 0
		}
	}
	return opt
}

// luResidual is the normalized backward error ||PA - LU|| / (||A|| n).
// Up to 512 it is core.Residual; beyond that the O(n^3) product is
// replaced by a probe with one random vector, ||PAx - L(Ux)||_inf /
// (||A||_max ||x||_inf n), which costs O(n^2).
func luResidual(a *mat.Dense, f *core.Factorization, rng *rand.Rand) float64 {
	if max(a.Rows, a.Cols) <= 512 {
		return core.Residual(a, f)
	}
	x := mat.Random(a.Cols, 1, rng)
	lux := mat.MulNaive(f.L, mat.MulNaive(f.U, x)).Data
	ax := mat.MulNaive(a, x).Data
	worst := 0.0
	for i, p := range f.Perm {
		worst = math.Max(worst, math.Abs(ax[p]-lux[i]))
	}
	return worst / (a.NormMax() * float64(max(a.Rows, a.Cols)))
}

// sameLU reports whether two factorizations are bit-identical. The
// numerics are deterministic by design, so every op on one input must
// reproduce the verified reference exactly; a difference means task
// bodies raced.
func sameLU(f, ref *core.Factorization) bool {
	return f != nil && slices.Equal(f.Perm, ref.Perm) &&
		sameBits(f.L.Data, ref.L.Data) && sameBits(f.U.Data, ref.U.Data)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (l *luWorkload) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	l.seed = seed
	l.a = mat.Random(l.m, l.n, rng)
	// Two warm-up ops: the first is verified and becomes the reference,
	// the second must already reproduce it.
	ref, err := core.Factor(l.a, l.options(0.1))
	if err != nil {
		return err
	}
	l.residual = luResidual(l.a, ref, rng)
	if tol := luTol * float64(max(l.m, l.n)); l.residual > tol {
		return fmt.Errorf("reference residual %g above %g", l.residual, tol)
	}
	l.ref = ref
	again, err := core.Factor(l.a, l.options(0.1))
	if err != nil || !sameLU(again, ref) {
		return fmt.Errorf("second warm-up op differs from the first (err=%v)", err)
	}
	return nil
}

func (l *luWorkload) close() { l.a, l.ref = nil, nil }

// measure loops core.Factor until the ops' own time fills the window:
// the clock stops while an output is compared with the reference, so
// ops_per_s does not depend on the checker's speed.
func (l *luWorkload) measure(window time.Duration, rec *recorder, layer values) (*sample, error) {
	s := &sample{}
	var obs luObserved
	var twins luTwins
	if rec != nil {
		twins = l.twins()
		if l.sweep {
			if err := l.runSweep(layer); err != nil {
				return nil, fmt.Errorf("dynamic-ratio sweep: %w", err)
			}
		}
		layer["core.residual_max"] = l.residual
	}
	pc0 := kernel.ReadPanelCacheStats()
	var clock time.Duration
	// A traced pass needs one op of each kind however short the window.
	for i := 0; clock < window || (rec != nil && i < 2); i++ {
		traced := rec != nil && i%2 == 1
		var f *core.Factorization
		var err error
		var dt time.Duration
		if traced {
			f, dt, err = l.tracedOp(rec, twins, &obs)
		} else {
			t0 := time.Now()
			f, err = core.Factor(l.a, l.options(0.1))
			dt = time.Since(t0)
		}
		clock += dt
		s.attempted++
		s.checked++
		if err != nil || !sameLU(f, l.ref) {
			s.failed++
			continue
		}
		if traced {
			s.latTraced = append(s.latTraced, dt.Seconds())
		} else {
			s.lat = append(s.lat, dt.Seconds())
			s.flops += luFlops(l.m, l.n)
		}
	}
	s.within = len(s.lat)
	s.elapsed = clock.Seconds()
	if rec != nil {
		pc1 := kernel.ReadPanelCacheStats()
		if lookups := (pc1.Hits - pc0.Hits) + (pc1.Misses - pc0.Misses); lookups > 0 {
			layer["kernel.panelcache_hit_share"] = float64(pc1.Hits-pc0.Hits) / float64(lookups)
		}
		obs.report(layer, twins)
	}
	return s, nil
}

// luTwins are separate measurements of the calls core makes inside
// PrepareFactor and Finish, on the workload's own matrix; the traced op
// shows them as computed child spans.
type luTwins struct{ pack, build, extract float64 }

func (l *luWorkload) twins() luTwins {
	var pack, build, extract []float64
	opt := l.options(0.1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		lay := layout.New(layout.BCL, l.a, luBlock, layout.NewGrid(opt.Workers))
		t1 := time.Now()
		_, nb := lay.Blocks()
		// Group 3 is what core picks for BCL, the paper's k.
		dag.BuildCALU(lay, dag.CALUOptions{NstaticCols: opt.NstaticCols(nb), Group: 3})
		t2 := time.Now()
		core.ExtractLU(lay)
		pack = append(pack, t1.Sub(t0).Seconds())
		build = append(build, t2.Sub(t1).Seconds())
		extract = append(extract, time.Since(t2).Seconds())
	}
	return luTwins{pack: median(pack), build: median(build), extract: median(extract)}
}

// luObserved collects one value per traced op.
type luObserved struct {
	prepare, finish, makespan, outside []float64
	idle, idleMax, update, panel       []float64
	dynShare, mismatches, steals       []float64
	tasks, edges                       float64
}

func (o *luObserved) report(layer values, tw luTwins) {
	if len(o.prepare) == 0 {
		return
	}
	layer["layout.pack_s"] = tw.pack
	layer["layout.extract_s"] = tw.extract
	layer["core.prepare_s"] = median(o.prepare)
	layer["core.finish_s"] = median(o.finish)
	layer["dag.build_s"] = tw.build
	layer["dag.tasks"] = o.tasks
	layer["dag.edges"] = o.edges
	layer["rt.makespan_s"] = median(o.makespan)
	layer["rt.outside_share"] = median(o.outside)
	layer["rt.idle_share"] = median(o.idle)
	layer["rt.idle_share_max"] = median(o.idleMax)
	layer["kernel.update_busy_share"] = median(o.update)
	layer["piv.panel_busy_share"] = median(o.panel)
	layer["sched.dynamic_dequeue_share"] = median(o.dynShare)
	layer["sched.mismatches"] = median(o.mismatches)
	layer["sched.steals"] = median(o.steals)
}

// laneStats summarizes a runtime trace: idle is the share of worker
// time spent neither in a task nor in an injected noise spin, over all
// workers and for the worst one; update and panel are the S+U and P+F
// shares of task time.
func laneStats(tr *trace.Trace, makespan float64) (idle, idleMax, update, panel float64) {
	busy := map[byte]float64{}
	for w := 0; w < tr.Workers; w++ {
		occupied := 0.0
		for _, sp := range tr.Spans[w] {
			busy[sp.Label] += sp.End - sp.Start
			occupied += sp.End - sp.Start
		}
		idle += makespan - occupied
		idleMax = max(idleMax, 1-occupied/makespan)
	}
	idle /= makespan * float64(tr.Workers)
	tasks := 0.0
	for label, t := range busy {
		if label != 'N' {
			tasks += t
		}
	}
	return idle, idleMax, (busy['S'] + busy['U']) / tasks, (busy['P'] + busy['F']) / tasks
}

// tracedOp is core.Factor taken apart at its public seams —
// PrepareFactor, rt.Run, Finish — with a span around each and the
// runtime's own task spans laid out in worker lanes under rt.run. The
// returned duration is the op's wall time; recording the spans happens
// after it.
func (l *luWorkload) tracedOp(rec *recorder, tw luTwins, obs *luObserved) (*core.Factorization, time.Duration, error) {
	w := loadWidth()
	opt := l.options(0.1)
	opt.Trace = trace.New(w)

	t0 := time.Now()
	job, err := core.PrepareFactor(l.a, opt)
	if err != nil {
		return nil, time.Since(t0), err
	}
	t1 := time.Now()
	res, err := rt.Run(job.Graph(), job.Policy(), rt.Options{Workers: w, Trace: opt.Trace, Noise: opt.Noise})
	if err != nil {
		return nil, time.Since(t0), err
	}
	t2 := time.Now()
	f := job.Finish(res)
	t3 := time.Now()

	op := rec.newOp()
	root := rec.real(op, -1, "client.op", t0, t3)
	prep := rec.real(op, root, "core.prepare", t0, t1)
	rec.add(op, prep, "layout.pack", rec.at(t0), rec.at(t0)+tw.pack, 1, true)
	rec.add(op, prep, "dag.build", rec.at(t0)+tw.pack, rec.at(t0)+tw.pack+tw.build, 1, true)
	run := rec.real(op, root, "rt.run", t1, t2)
	ms := res.Makespan.Seconds()
	// The executor's clock starts inside rt.Run and stops before it
	// returns; the lanes are aligned to the end of the call.
	base := rec.at(t2) - ms
	for _, spans := range opt.Trace.Spans {
		id := rec.add(op, run, "rt.worker", base, base+ms, w, true)
		for _, sp := range spans {
			rec.add(op, id, "task."+string(sp.Label), base+sp.Start, base+sp.End, w, false)
		}
	}
	fin := rec.real(op, root, "core.finish", t2, t3)
	rec.add(op, fin, "layout.extract", rec.at(t2), rec.at(t2)+tw.extract, 1, true)

	idle, idleMax, update, panel := laneStats(opt.Trace, ms)
	wall := t3.Sub(t0).Seconds()
	obs.prepare = append(obs.prepare, t1.Sub(t0).Seconds())
	obs.finish = append(obs.finish, t3.Sub(t2).Seconds())
	obs.makespan = append(obs.makespan, ms)
	obs.outside = append(obs.outside, 1-ms/wall)
	obs.idle = append(obs.idle, idle)
	obs.idleMax = append(obs.idleMax, idleMax)
	obs.update = append(obs.update, update)
	obs.panel = append(obs.panel, panel)
	c := res.Counters
	if d := c.DequeueStatic + c.DequeueDynamic; d > 0 {
		obs.dynShare = append(obs.dynShare, float64(c.DequeueDynamic)/float64(d))
	}
	obs.mismatches = append(obs.mismatches, float64(c.Mismatches))
	obs.steals = append(obs.steals, float64(c.Steals))
	obs.tasks, obs.edges = float64(f.Stats.Total), float64(f.Stats.Edges)
	return f, t3.Sub(t0), nil
}

// runSweep is the paper's experiment on the real runtime: makespan and
// idle share of an n=1024 factorization as the dynamic ratio goes 0,
// 0.1, 0.3, 1 — quiet on lu_large, with worker 0 delayed on lu_noisy.
// It is the measured twin of Figures 1, 4, 14 and 15 and predicts which
// ratio lu_noisy wants.
func (l *luWorkload) runSweep(layer values) error {
	a := mat.Random(1024, 1024, rand.New(rand.NewSource(l.seed+1)))
	for _, pt := range []struct {
		tag    string
		dratio float64
	}{{"dr000", 0}, {"dr010", 0.1}, {"dr030", 0.3}, {"dr100", 1}} {
		var spans, idles []float64
		for rep := 0; rep < 3; rep++ {
			opt := l.options(pt.dratio)
			opt.Trace = trace.New(opt.Workers)
			f, err := core.Factor(a, opt)
			if err != nil {
				return err
			}
			idle, _, _, _ := laneStats(opt.Trace, f.Makespan.Seconds())
			spans = append(spans, f.Makespan.Seconds())
			idles = append(idles, idle)
		}
		layer["rt.sweep_makespan_s."+pt.tag] = median(spans)
		layer["rt.sweep_idle_share."+pt.tag] = median(idles)
	}
	return nil
}
