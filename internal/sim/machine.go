// Package sim executes task dependency graphs on a discrete-event
// model of a multicore machine, reproducing the paper's two evaluation
// platforms — a 16-core Intel Xeon and a 48-core AMD Opteron NUMA
// machine — which this repository cannot run on natively. The
// simulator drives exactly the same sched.Policy implementations as the
// real runtime, so the scheduling decisions under study are identical;
// what the machine model adds is their *cost*: per-kernel efficiency by
// layout, NUMA migration penalties, serialized dynamic-queue dequeues,
// and stochastic OS noise. Constants are calibrated once against the
// percentages the paper's figures report (internal/experiments
// regenerates them) and then held fixed across every experiment.
package sim

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/noise"
)

// Machine describes a simulated platform.
type Machine struct {
	// Name appears in reports ("intel16", "amd48").
	Name string
	// Sockets and CoresPerSocket define the topology; worker w runs on
	// core w, socket w/CoresPerSocket (compact placement).
	Sockets        int
	CoresPerSocket int
	// CoreGflops is the per-core double-precision peak.
	CoreGflops float64
	// EffScale uniformly scales every kernel efficiency, capturing
	// machine-level losses the per-kernel model does not itemize
	// (shared memory bandwidth, SMT arbitration, DRAM pressure). It is
	// the knob that pins the simulator's absolute Gflop/s to the
	// paper's reported peak fractions (79% Intel, 49% AMD at n=15000).
	EffScale float64
	// RemoteNsPerByte is the extra cost of touching data homed on
	// another socket (the NUMA remote-access penalty); SameSocketNsPerByte
	// is the milder cross-core, same-socket coherence cost.
	RemoteNsPerByte     float64
	SameSocketNsPerByte float64
	// CMExtraFactor multiplies migration costs for the column-major
	// layout, whose strided blocks defeat prefetching.
	CMExtraFactor float64
	// StaticDequeueSec is the cost of popping a worker-private queue;
	// DynamicDequeueSec is the critical-section length of a shared-queue
	// pop — shared pops additionally serialize against each other, which
	// is how dequeue contention emerges at high core counts.
	StaticDequeueSec  float64
	DynamicDequeueSec float64
	// TileReuseLossFactor inflates the compute time of a 2l-BL update
	// executed away from its data home: the whole point of the tile
	// layout is that a tile sits in its owner's cache, and dynamic
	// migration forfeits that reuse (the paper's first reason dynamic
	// collapses on 2l-BL, section 5.1.2).
	TileReuseLossFactor float64
	// PanelMigrationFactor inflates the compute time of panel-class
	// tasks (TSLU leaves/combines, F, L, U) executed away from their
	// home: these kernels are latency-bound gathers over a whole block
	// column, the worst case for remote NUMA access. Because panel work
	// is a large share of the flops on small matrices and vanishing on
	// large ones, this term reproduces the paper's observation that
	// fully dynamic scheduling hurts most at small n on the NUMA box.
	PanelMigrationFactor float64
	// Noise models transient OS interference (delta_i); nil means quiet.
	Noise noise.Generator
}

// Cores returns the total core count.
func (m Machine) Cores() int { return m.Sockets * m.CoresPerSocket }

// Socket returns the socket of a core.
func (m Machine) Socket(core int) int { return core / m.CoresPerSocket }

// Validate sanity-checks the machine description.
func (m Machine) Validate() error {
	if m.Sockets <= 0 || m.CoresPerSocket <= 0 {
		return fmt.Errorf("sim: bad topology %dx%d", m.Sockets, m.CoresPerSocket)
	}
	if m.CoreGflops <= 0 {
		return fmt.Errorf("sim: non-positive core rate %g", m.CoreGflops)
	}
	return nil
}

// IntelXeon16 models the paper's four-socket, quad-core Intel Xeon
// EMT64 (2.67 GHz, 85.3 Gflop/s peak): low-latency coherence, cheap
// remote access — the machine where fully dynamic scheduling is almost
// free and fully static scheduling loses ~8% to load imbalance.
func IntelXeon16() Machine {
	return Machine{
		Name:                 "intel16",
		Sockets:              4,
		CoresPerSocket:       4,
		CoreGflops:           85.3 / 16,
		EffScale:             0.86,
		RemoteNsPerByte:      0.040,
		SameSocketNsPerByte:  0.010,
		CMExtraFactor:        3.0,
		StaticDequeueSec:     0.05e-6,
		DynamicDequeueSec:    0.35e-6,
		TileReuseLossFactor:  0.06,
		PanelMigrationFactor: 1.12,
		Noise:                noise.NewPoisson(40, 120e-6, 1),
	}
}

// AMDOpteron48 models the paper's eight-socket, six-core AMD Opteron
// (2.1 GHz, 539.5 Gflop/s peak): a NUMA machine where remote memory
// access is expensive, so locality — and therefore mostly static
// scheduling with a small dynamic share — wins (section 5.1.3).
func AMDOpteron48() Machine {
	return Machine{
		Name:                 "amd48",
		Sockets:              8,
		CoresPerSocket:       6,
		CoreGflops:           539.5 / 48,
		EffScale:             0.60,
		RemoteNsPerByte:      0.45,
		SameSocketNsPerByte:  0.06,
		CMExtraFactor:        3.0,
		StaticDequeueSec:     0.05e-6,
		DynamicDequeueSec:    2.5e-6,
		TileReuseLossFactor:  0.45,
		PanelMigrationFactor: 1.45,
		Noise:                noise.NewPoisson(40, 120e-6, 1),
	}
}

// Quiet returns a copy of the machine with noise disabled, used by
// experiments that isolate scheduling effects from noise effects.
func (m Machine) Quiet() Machine {
	m.Noise = noise.None{}
	return m
}

// WithNoise returns a copy using the given generator.
func (m Machine) WithNoise(g noise.Generator) Machine {
	m.Noise = g
	return m
}

// kernel efficiency model: fraction of per-core peak achieved by each
// task kind on each layout. These constants encode the paper's
// qualitative storage arguments: BCL reaches the best gemm rates when
// its grouped updates materialize (the k=3 fused calls), 2l-BL has the
// best ungrouped tile gemm (tiles are cache-resident), CM pays for
// strided panels everywhere.
const (
	gemmEffBCL      = 0.80 // ungrouped BCL gemm
	gemmEffBCLBonus = 0.16 // added at full k=3 grouping (0.96 peak share)
	gemmEffTwoLevel = 0.86 // contiguous tile gemm
	gemmEffCM       = 0.62 // strided gemm
	panelEff        = 0.60 // trsm/getf2-class kernels (BCL, 2l-BL)
	panelEffCM      = 0.26
	tsluEff         = 0.80 // recursive-LU leaves/combines are BLAS-3 rich
	tsluEffCM       = 0.30
)

// Efficiency returns the modeled fraction of peak for one task.
func Efficiency(t *dag.Task, kind layout.Kind) float64 {
	switch t.Kind {
	case dag.S:
		switch kind {
		case layout.BCL:
			width := 1
			if len(t.Group) > 1 {
				width = len(t.Group)
			}
			return gemmEffBCL + gemmEffBCLBonus*float64(width-1)/2
		case layout.TwoLevel:
			return gemmEffTwoLevel
		default:
			return gemmEffCM
		}
	case dag.PLeaf, dag.PCombine:
		if kind == layout.CM {
			return tsluEffCM
		}
		return tsluEff
	default: // Final, L, U
		if kind == layout.CM {
			return panelEffCM
		}
		return panelEff
	}
}
