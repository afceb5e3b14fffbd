// Command bench is the repository's benchmark: six workloads over the
// library (core.Factor), the resident engine and the sharded HTTP tier,
// measured end to end and, in a separate traced pass, layer by layer.
// It times the layers from outside, through their public functions and
// the values they already export; see README.md for the metric tables.
//
//	bash bench/run.sh --workload lu_large --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the run's
// metrics: the end-to-end set with --trace 0, the per-layer set with
// --trace 1. --workload all runs every workload in a process of its
// own; --aa runs two such sets with different seeds and fails if any
// end-to-end metric differs between them by more than its bound.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"
)

// processStart approximates the start of the process; setup_s counts
// from here.
var processStart = time.Now()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	spec     *spec
	// setups is how often set-up runs; the test runs it once.
	setups int
}

// setupReps: a run sets up three times and setup_s reports the median,
// because one set-up is too short a measurement to stay inside its bound
// from run to run.
const setupReps = 3

// sliceSeconds is at most how much of the untraced window runs between
// two checkpoints of the canary.
const sliceSeconds = 2.5

// workload is one set of inputs and the loop that drives them.
type workload interface {
	// setup derives the inputs from the seed, boots whatever serves
	// them, verifies the reference outputs and runs the warm-up ops.
	setup(seed int64) error
	// measure runs the timed window. With a recorder every second op is
	// traced and the observed per-layer values go into layer.
	measure(window time.Duration, rec *recorder, layer values) (*sample, error)
	// close releases what setup started; it is safe before setup.
	close()
}

// sample is what one timed window produced.
type sample struct {
	// lat holds the wall time in seconds of every correct untraced op;
	// latTraced the same for the traced ops of a traced run.
	lat, latTraced []float64
	// large holds the latencies of the workload's heaviest op class;
	// nil when all ops are of one class.
	large []float64
	// within counts the correct ops that met the latency limit.
	within int
	// attempted, failed and checked count ops: sent, wrong or refused,
	// and compared against a verified reference.
	attempted, failed, checked int
	// flops is the useful work of the ops in lat.
	flops float64
	// elapsed is the window's clock in seconds: the time the ops
	// themselves took, without the checks between them; with several
	// closed-loop clients, the mean of their clocks.
	elapsed float64
	// late holds how long after its due time each open-loop request was
	// sent.
	late []float64
	// raw holds lat as measured, before merge scaled it.
	raw []float64
	// open marks an open loop: its requests come at a fixed rate, so its
	// elapsed time is the schedule's and not a measure of speed.
	open bool
}

// merge adds a slice of the window to s, with its timings brought to the
// reference machine speed: factor is how much slower the machine was
// while the slice ran. An open loop's timings stay as measured: it leaves
// the processors partly idle, and on an idle machine the canary slows
// down where the requests do not.
func (s *sample) merge(slice *sample, factor float64) {
	if s.open = slice.open; s.open {
		factor = 1
	}
	s.raw = append(s.raw, slice.lat...)
	for _, x := range slice.lat {
		s.lat = append(s.lat, x/factor)
	}
	s.late = append(s.late, slice.late...)
	s.within += slice.within
	s.attempted += slice.attempted
	s.failed += slice.failed
	s.checked += slice.checked
	s.flops += slice.flops
	s.elapsed += slice.elapsed / factor
}

// workloads lists the workloads in the order --workload all runs them.
var workloads = []struct {
	name string
	make func() workload
}{
	{"lu_large", func() workload { return &luWorkload{m: 2048, n: 2048, sweep: true} }},
	{"lu_tall", func() workload { return &luWorkload{m: 8192, n: 256} }},
	{"lu_noisy", func() workload { return &luWorkload{m: 1024, n: 1024, noisy: true, sweep: true} }},
	{"engine_mixed", func() workload { return &engineWorkload{} }},
	{"serve_factor", func() workload { return &serveWorkload{} }},
	{"serve_solve", func() workload { return &serveWorkload{solve: true} }},
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var (
	initOnce sync.Once
	initS    float64
	tuneDir  string
)

// initProcess points the kernel tuner at a fresh directory, so its cold
// search always runs and lands in setup_s, and lets it run.
func initProcess(cfg config, w io.Writer) error {
	var err error
	initOnce.Do(func() {
		if err = os.MkdirAll(cfg.out, 0o755); err != nil {
			return
		}
		if tuneDir, err = os.MkdirTemp(cfg.out, "tune-"); err != nil {
			return
		}
		os.Setenv("HSD_TUNE_DIR", tuneDir)
		printHeader(w, cfg)
		initS = time.Since(processStart).Seconds()
	})
	return err
}

// runOne runs one workload once and returns its metrics.
func runOne(cfg config, w io.Writer) (*result, error) {
	var wl workload
	for _, w := range workloads {
		if w.name == cfg.workload {
			wl = w.make()
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := initProcess(cfg, w); err != nil {
		return nil, err
	}
	defer wl.close()

	// Every timing of the untraced pass is divided by the machine factor
	// the canary showed right before and right after it. between takes a
	// checkpoint and returns the factor of the stretch since the last one.
	checks := []float64{checkpoint()}
	between := func() float64 {
		checks = append(checks, checkpoint())
		return (checks[len(checks)-2] + checks[len(checks)-1]) / 2
	}
	scaledInit := initS / checks[0]
	setups := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		wl.close()
		t0 := time.Now()
		if err := wl.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		raw := time.Since(t0).Seconds()
		setups = append(setups, raw/between())
	}

	var rec *recorder
	layer := values{}
	s := &sample{}
	var m0, m1 runtime.MemStats
	if cfg.trace == 1 {
		// The traced pass is one window, and its timings stay as measured.
		rec = newRecorder()
		if err := probes(layer, cfg.seed); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		between()
		runtime.ReadMemStats(&m0)
		var err error
		if s, err = wl.measure(time.Duration(cfg.seconds*float64(time.Second)), rec, layer); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		runtime.ReadMemStats(&m1)
		layer["load.machine_factor"] = between()
	} else {
		runtime.ReadMemStats(&m0)
		n := math.Ceil(cfg.seconds / sliceSeconds)
		for i := 0.0; i < n; i++ {
			slice, err := wl.measure(time.Duration(cfg.seconds/n*float64(time.Second)), nil, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.workload, err)
			}
			s.merge(slice, between())
		}
		runtime.ReadMemStats(&m1)
	}
	if len(s.lat) == 0 {
		return nil, fmt.Errorf("%s: no correct op in the window (%d attempted, %d failed)",
			cfg.workload, s.attempted, s.failed)
	}
	// drift is how far apart the middle half of this run's checkpoints
	// lies: the machine changing speed under the run.
	drift := (quantile(checks, 0.75) - quantile(checks, 0.25)) / median(checks)

	res := &result{Correct: s.failed == 0 && s.checked > 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d checked=%d samples=%d window=%.3fs\n",
		s.attempted, s.failed, s.checked, len(s.lat), s.elapsed)
	fmt.Fprintf(w, "machine: %.3f times as slow as the reference (median of %d canary checkpoints, middle half %.1f%% apart)\n",
		median(checks), len(checks), 100*drift)
	if cfg.trace == 0 {
		fmt.Fprintf(w, "op_s_p50 as measured, before scaling to the reference speed: %.6g s\n", median(s.raw))
	}
	if drift > 0.10 {
		fmt.Fprintln(w, "NOISY: the machine changed speed under this run")
	}

	defs, v := cfg.spec.EndToEnd, values{}
	if cfg.trace == 0 {
		p50 := median(s.lat)
		v["setup_s"] = scaledInit + median(setups)
		v["op_s_p50"] = p50
		v["ops_per_s"] = float64(s.within) / s.elapsed
		v["gflops"] = s.flops / float64(len(s.lat)) / p50 / 1e9
		v["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(len(s.lat))
	} else {
		defs, v = cfg.spec.PerLayer, layer
		all := append(append([]float64{}, s.lat...), s.latTraced...)
		v["load.samples"] = float64(len(all))
		v["load.op_s_p90"] = quantile(all, 0.9)
		v["load.op_s_p99"] = quantile(all, 0.99)
		if s.large != nil {
			v["load.large_op_s_p50"] = median(s.large)
		}
		v["load.gen_late_s_p90"] = quantile(s.late, 0.9)
		v["load.slo_miss_share"] = 1 - float64(s.within)/float64(len(s.lat))
		v["load.fail_share"] = float64(s.failed) / float64(s.attempted)
		v["load.canary_drift"] = drift
		v["load.op_s_p50_raw"] = median(s.lat)
		if base := median(s.lat); len(s.latTraced) > 0 {
			v["load.trace_overhead_share"] = (median(s.latTraced) - base) / base
		}
		v["proc.peak_rss_mb"] = peakRSSMB()
		v["proc.gc_cpu_share"] = m1.GCCPUFraction
		if err := rec.write(cfg.out, cfg.workload, cfg.seed, w); err != nil {
			return nil, err
		}
	}
	if err := checkValues(defs, v, cfg.trace == 0); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n%-34s %16s  %-8s %s\n", "metric", "value", "unit", "should move")
	for _, d := range defs {
		// The result line carries every declared metric; one that does not
		// apply to this workload reads 0 there and n/a here.
		x, ok := v[d.Name]
		res.Metrics[d.Name] = metricValue{Value: x, Unit: d.Unit}
		text := "n/a"
		if ok {
			text = fmt.Sprintf("%.6g", x)
		}
		fmt.Fprintf(w, "%-34s %16s  %-8s %s\n", d.Name, text, d.Unit, moves[d.Name])
	}
	return res, nil
}

// runChild runs one workload in a process of its own, so its setup_s
// starts from a cold process like the driver's runs do, and parses the
// last line of its output.
func runChild(cfg config, w io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(cfg.trace), "-out", cfg.out)
	cmd.Stdout = io.MultiWriter(w, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", cfg.workload, err)
	}
	return &res, nil
}

// runSet runs every workload once and returns the results by workload.
func runSet(cfg config, w io.Writer) (map[string]*result, error) {
	set := map[string]*result{}
	for _, wl := range workloads {
		c := cfg
		c.workload = wl.name
		res, err := runChild(c, w)
		if err != nil {
			return nil, err
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: %d of %d ops failed", wl.name, res.Failed, res.Attempted)
		}
		set[wl.name] = res
	}
	return set, nil
}

// runAA runs two sets of the same code with different seeds and reports
// every end-to-end pair's relative difference beside its bound.
func runAA(cfg config, w io.Writer) error {
	cfg.trace = 0
	a, err := runSet(cfg, w)
	if err != nil {
		return err
	}
	cfg.seed++
	b, err := runSet(cfg, w)
	if err != nil {
		return err
	}
	outside := 0
	fmt.Fprintf(w, "\n%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "diff", "bound")
	for _, wl := range workloads {
		name := wl.name
		for _, d := range cfg.spec.EndToEnd {
			va, vb := a[name].Metrics[d.Name].Value, b[name].Metrics[d.Name].Value
			diff := (vb - va) / va
			mark := ""
			if math.Abs(diff) > d.Bound {
				mark = "  OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", name, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d end-to-end pairs differ by more than their bound", outside)
	}
	return nil
}

func run(args []string, w io.Writer) error {
	cfg := config{setups: setupReps}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed window; 0 takes run_seconds from BENCHMARK.json")
	fs.IntVar(&cfg.trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&cfg.out, "out", "bench/out", "directory for trace files and the tuner's scratch profile")
	aa := fs.Bool("aa", false, "run two full sets with different seeds and compare them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if cfg.spec, err = loadSpec("BENCHMARK.json"); err != nil {
		return err
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(cfg.spec.RunSeconds)
	}
	if cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	switch {
	case *aa:
		return runAA(cfg, w)
	case cfg.workload == "all":
		_, err := runSet(cfg, w)
		return err
	}
	res, err := runOne(cfg, w)
	if tuneDir != "" {
		os.RemoveAll(tuneDir)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s\n", line)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
