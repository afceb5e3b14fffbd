// Package model implements the paper's theoretical analysis (section
// 6): Theorem 1's upper bound on the static fraction fs that still
// attains ideal execution time in the presence of per-core excess work
// delta_i, the extended denominator that accounts for critical-path and
// migration costs, the resulting best-dynamic-ratio predictor, and the
// exascale projection of section 7.
package model

import (
	"fmt"
	"math"
)

// Params collects the quantities of the section 6 analysis.
type Params struct {
	// T1 is the serial execution time of the whole computation.
	T1 float64
	// P is the core count.
	P int
	// DeltaMax and DeltaAvg are the maximum and average excess work
	// (seconds) across cores — the delta_i of Theorem 1.
	DeltaMax float64
	DeltaAvg float64
	// TCriticalPath is the execution time of the critical path, added to
	// the denominator when p >= T1/TcriticalPath (section 6's extension).
	TCriticalPath float64
	// TMigration is the aggregate task-migration (coherence miss) cost.
	TMigration float64
	// TOverhead folds in any further load-balancing costs (dequeue
	// overhead etc.), the paper's final generalization.
	TOverhead float64
}

// tp returns the parallel-time denominator: T1/p plus the extension
// terms (the paper starts from Tp = T1/p and then argues the
// denominator should really be T1/p + TcriticalPath + Tmigration +
// Toverhead).
func (p Params) tp() float64 {
	if p.P <= 0 {
		return math.Inf(1)
	}
	return p.T1/float64(p.P) + p.TCriticalPath + p.TMigration + p.TOverhead
}

// MaxStaticFraction evaluates Theorem 1:
//
//	fs <= 1 - (deltaMax - deltaAvg) / Tp
//
// clamped to [0,1]: the largest fraction of the work that can be
// scheduled statically while the worst-case time under unbalanced noise
// stays no worse than the fully balanced ideal time.
func (p Params) MaxStaticFraction() float64 {
	tp := p.tp()
	if tp <= 0 || math.IsInf(tp, 1) {
		return 0
	}
	fs := 1 - (p.DeltaMax-p.DeltaAvg)/tp
	return clamp01(fs)
}

// Validate sanity-checks the parameters.
func (p Params) Validate() error {
	if p.T1 < 0 || p.DeltaMax < 0 || p.DeltaAvg < 0 {
		return fmt.Errorf("model: negative times in %+v", p)
	}
	if p.DeltaAvg > p.DeltaMax {
		return fmt.Errorf("model: deltaAvg %g > deltaMax %g", p.DeltaAvg, p.DeltaMax)
	}
	if p.P <= 0 {
		return fmt.Errorf("model: non-positive core count %d", p.P)
	}
	return nil
}

// Projection is one row of the section 7 exascale projection.
type Projection struct {
	Cores         int
	NoiseAmp      float64
	MaxStaticFrac float64
	MinDynamicPct float64
}

// ProjectExascale sweeps core counts while keeping the work per core
// constant (weak scaling, as section 7 prescribes) and amplifying the
// delta spread by amp(p); it returns the projected minimum dynamic
// percentage per configuration. As the paper concludes, the bound
// forces the dynamic share upward on larger machines.
func ProjectExascale(base Params, cores []int, amp func(p int) float64) []Projection {
	out := make([]Projection, 0, len(cores))
	perCore := base.T1 / float64(base.P)
	for _, p := range cores {
		a := amp(p)
		cfg := base
		cfg.P = p
		cfg.T1 = perCore * float64(p) // constant work per core
		cfg.DeltaMax = base.DeltaMax * a
		cfg.DeltaAvg = base.DeltaAvg // the *spread* grows, not the mean
		if cfg.DeltaAvg > cfg.DeltaMax {
			cfg.DeltaAvg = cfg.DeltaMax
		}
		fs := cfg.MaxStaticFraction()
		out = append(out, Projection{
			Cores:         p,
			NoiseAmp:      a,
			MaxStaticFrac: fs,
			MinDynamicPct: 100 * (1 - fs),
		})
	}
	return out
}

// FitDeltas estimates (deltaMax, deltaAvg) from observed per-core busy
// times: the excess of each core over the least loaded one. It is how
// the experiments extract the theorem's inputs from a trace.
func FitDeltas(busy []float64) (deltaMax, deltaAvg float64) {
	if len(busy) == 0 {
		return 0, 0
	}
	minB := busy[0]
	for _, b := range busy {
		if b < minB {
			minB = b
		}
	}
	sum := 0.0
	for _, b := range busy {
		d := b - minB
		sum += d
		if d > deltaMax {
			deltaMax = d
		}
	}
	return deltaMax, sum / float64(len(busy))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
