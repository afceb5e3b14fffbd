package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the driver reads. That file is the
// one place the metrics' names, units, directions and bounds, the
// workloads' order and the window length are declared.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd is measured with tracing off. An op is one core.Factor
	// call (lu_*), one small-class engine job (engine_mixed) or one HTTP
	// request from send to last byte (serve_*).
	EndToEnd []metricDef `json:"end_to_end"`
	// PerLayer is measured in the traced pass: probes (fixed micro-
	// measurements through a layer's public functions) on every
	// workload, observed values where the workload traverses the layer.
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// moves names the end-to-end metric and workload each per-layer metric
// is expected to move; on every other workload the prediction is no
// change. BENCHMARK.json has no field for it. The load.* and proc.*
// metrics are the generator's own health and predict nothing.
var moves = map[string]string{
	"kernel.gemm_gflops_512":          "gflops@lu_large",
	"kernel.gemm_gflops_update":       "gflops@lu_large",
	"kernel.trsm_gflops_64":           "gflops@lu_large",
	"kernel.getrf_gflops_panel":       "op_s_p50@lu_tall",
	"kernel.update_busy_share":        "gflops@lu_large",
	"kernel.panelcache_hit_share":     "gflops@lu_large",
	"piv.panel_busy_share":            "op_s_p50@lu_tall",
	"piv.select_s":                    "op_s_p50@lu_tall",
	"layout.pack_s":                   "op_s_p50@lu_tall,lu_large",
	"layout.extract_s":                "op_s_p50@lu_tall,lu_large",
	"layout.encode_mb_per_s":          "op_s_p50@serve_factor",
	"dag.build_s":                     "ops_per_s@engine_mixed",
	"dag.tasks":                       "ops_per_s@engine_mixed",
	"dag.edges":                       "ops_per_s@engine_mixed",
	"dag.fuse_s":                      "ops_per_s@engine_mixed",
	"rt.makespan_s":                   "op_s_p50@lu_noisy",
	"rt.outside_share":                "op_s_p50@lu_tall",
	"rt.idle_share":                   "op_s_p50@lu_noisy,lu_tall",
	"rt.idle_share_max":               "op_s_p50@lu_noisy,lu_tall",
	"sched.dynamic_dequeue_share":     "op_s_p50@lu_noisy",
	"sched.mismatches":                "op_s_p50@lu_noisy",
	"sched.steals":                    "op_s_p50@lu_noisy",
	"rt.dispatch_tasks_per_s":         "ops_per_s@engine_mixed",
	"rt.sweep_makespan_s.dr000":       "op_s_p50@lu_noisy",
	"rt.sweep_makespan_s.dr010":       "op_s_p50@lu_noisy",
	"rt.sweep_makespan_s.dr030":       "op_s_p50@lu_noisy",
	"rt.sweep_makespan_s.dr100":       "op_s_p50@lu_noisy",
	"rt.sweep_idle_share.dr000":       "op_s_p50@lu_noisy",
	"rt.sweep_idle_share.dr010":       "op_s_p50@lu_noisy",
	"rt.sweep_idle_share.dr030":       "op_s_p50@lu_noisy",
	"rt.sweep_idle_share.dr100":       "op_s_p50@lu_noisy",
	"core.prepare_s":                  "op_s_p50@lu_*",
	"core.finish_s":                   "op_s_p50@lu_*",
	"core.residual_max":               "failed@lu_*",
	"core.solve_gflops":               "op_s_p50@serve_solve",
	"engine.queue_wait_s_p50":         "op_s_p50@engine_mixed",
	"engine.span_s_p50":               "op_s_p50@engine_mixed",
	"engine.overhead_s_p50":           "op_s_p50@engine_mixed",
	"engine.fused_share":              "ops_per_s@engine_mixed",
	"engine.lends_per_job":            "ops_per_s@engine_mixed",
	"engine.shed":                     "failed@engine_mixed",
	"engine.vs_spawn_ratio":           "ops_per_s@engine_mixed",
	"serve.factor_self_s_p50":         "op_s_p50@serve_factor",
	"serve.solve_self_s_p50":          "op_s_p50@serve_solve",
	"serve.req_mb":                    "op_s_p50@serve_factor",
	"serve.resp_mb":                   "op_s_p50@serve_solve",
	"serve.json_decode_s":             "op_s_p50@serve_factor",
	"serve.store_evictions":           "failed@serve_factor",
	"cluster.route_self_s_p50":        "op_s_p50@serve_solve",
	"cluster.factor_route_self_s_p50": "op_s_p50@serve_factor",
	"cluster.replicate_lag_s":         "op_s_p50@serve_factor",
	"cluster.wire_encode_s":           "op_s_p50@serve_factor",
	"cluster.wire_decode_s":           "op_s_p50@serve_factor",
	"cluster.wire_mb":                 "op_s_p50@serve_factor",
	"cluster.failovers":               "failed@serve_*",
}

// values holds one run's measurements by metric name; a metric that
// does not apply to the workload is absent.
type values map[string]float64

// quantile returns the q-quantile of xs by linear interpolation; xs is
// sorted in place. It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// meanSeconds is the mean of the clients' clocks in seconds.
func meanSeconds(clocks []time.Duration) float64 {
	var sum time.Duration
	for _, c := range clocks {
		sum += c
	}
	return sum.Seconds() / float64(len(clocks))
}

// luFlops is the useful work of an m x n LU: mn^2 - n^3/3.
func luFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return fm*fn*fn - fn*fn*fn/3
}

// solveFlops is the useful work of two triangular sweeps over nrhs
// right-hand sides: 2 n^2 nrhs.
func solveFlops(n, nrhs int) float64 { return 2 * float64(n) * float64(n) * float64(nrhs) }

// checkValues reports a value that is not finite or that BENCHMARK.json
// does not declare and, when all is set, a declared metric without a
// value.
func checkValues(defs []metricDef, v values, all bool) error {
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		if _, ok := v[d.Name]; all && !ok {
			return fmt.Errorf("metric %s has no value", d.Name)
		}
	}
	for name, x := range v {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", name, x)
		}
	}
	return nil
}
