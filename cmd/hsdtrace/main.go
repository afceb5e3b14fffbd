// Command hsdtrace renders ASCII execution timelines of simulated CALU
// runs — the tool behind the paper's profiling figures (1, 4, 14, 15):
//
//	hsdtrace -machine amd48 -workers 16 -n 2500 -layout 2l -sched static
//	hsdtrace -machine amd48 -workers 16 -n 2500 -layout cm -sched dynamic
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	machineName := flag.String("machine", "amd48", "machine model: intel16 | amd48")
	workers := flag.Int("workers", 16, "cores used")
	n := flag.Int("n", 2500, "matrix dimension")
	b := flag.Int("b", 100, "block size")
	layoutName := flag.String("layout", "2l", "layout: cm | bcl | 2l")
	schedName := flag.String("sched", "static", "scheduler: static | dynamic | hybrid")
	dratio := flag.Float64("dratio", 0.1, "dynamic fraction for hybrid")
	width := flag.Int("width", 160, "gantt width in characters")
	seed := flag.Int64("seed", 42, "noise seed")
	flag.Parse()

	var m sim.Machine
	switch *machineName {
	case "intel16":
		m = sim.IntelXeon16()
	case "amd48":
		m = sim.AMDOpteron48()
	default:
		fmt.Fprintf(os.Stderr, "hsdtrace: unknown machine %q\n", *machineName)
		os.Exit(2)
	}
	// The options of the core.Factor call this run simulates: Nstatic,
	// the group size and the policy all come from them.
	opt := core.Options{DynamicRatio: *dratio}
	var err error
	if opt.Layout, err = layout.ParseKind(*layoutName); err == nil {
		opt.Scheduler, err = core.ParseScheduler(*schedName)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hsdtrace: %v\n", err)
		os.Exit(2)
	}
	nb := (*n + *b - 1) / *b
	tr := trace.New(*workers)
	res, err := sim.FactorSim(*n, *n, *b, opt.NstaticCols(nb), opt.GroupSize(), sim.Config{
		Machine: m, Workers: *workers, Layout: opt.Layout, Policy: opt.Policy(), Trace: tr, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hsdtrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s %s/%s n=%d b=%d workers=%d: %.4fs, %.1f Gflop/s, idle %.1f%%\n",
		m.Name, opt.Layout, *schedName, *n, *b, *workers,
		res.Makespan, res.Gflops, 100*tr.IdleFraction())
	fmt.Printf("90%% of workers permanently idle after %.0f%% of the makespan\n",
		100*tr.PermanentIdlePoint(0.9))
	fmt.Println("P=panel preprocessing  F=pivot factor  L/U=panel factors  S=update  .=idle")
	fmt.Print(tr.Gantt(*width))
}
