package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/kernel"
)

// loadWidth is W: the worker count of the library workloads and the
// client count of the service workloads.
func loadWidth() int { return min(runtime.NumCPU(), 4) }

// printHeader states where and on what the numbers were measured.
func printHeader(w io.Writer, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	p, src := kernel.ActiveProfile()
	fmt.Fprintf(w, "bench: workload=%s seed=%d seconds=%g trace=%d W=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, loadWidth())
	fmt.Fprintf(w, "env: commit=%s %s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	fmt.Fprintf(w, "kernel profile (%s): %s kc=%d mc=%d nc=%d gemmMinFlops=%d panelMinArea=%d tuner=%.1f Gflop/s\n",
		src, p.Kernel, p.KC, p.MC, p.NC, p.GemmMinFlops, p.PanelMinArea, p.GFLOPS)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// The canary is a fixed piece of work of the benchmark's own: W
// goroutines, one per worker of the library workloads, each sweeping a
// 4 MB array of its own (read, add, write) four times. The array does not
// fit a core's private cache, so the sweep runs at the speed of the cores
// and of the cache they share with whoever else is on the host, and that
// is what moves an op's time when the host gets busy: on the 2-vCPU build
// sandbox op times swing by 20 to 100 % for minutes at a time while no
// line of the program has changed. The canary calls nothing of the
// program, so a change to the program cannot move it.
const (
	canaryWords  = 1 << 19 // 4 MB of float64 per goroutine
	canarySweeps = 4
	// canaryReps is how often one checkpoint repeats the work, after one
	// repetition that brings the arrays back into the cache; it reports
	// the mean, because an op, too, pays for every interruption.
	canaryReps = 48
	// canaryRef is what one repetition takes on the quiet build sandbox.
	// A timing is reported as measured x canaryRef / (canary beside it):
	// seconds on a machine at the reference speed.
	canaryRef = 1.15e-3
)

var canaryBufs [][]float64

// checkpoint runs the canary and returns the machine factor: how many
// times slower than the reference the machine is at this moment.
func checkpoint() float64 {
	if canaryBufs == nil {
		for w := 0; w < loadWidth(); w++ {
			canaryBufs = append(canaryBufs, make([]float64, canaryWords))
		}
	}
	var t0 time.Time
	for rep := 0; rep <= canaryReps; rep++ {
		if rep == 1 {
			t0 = time.Now()
		}
		var wg sync.WaitGroup
		for _, buf := range canaryBufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sweep := 0; sweep < canarySweeps; sweep++ {
					for i := range buf {
						buf[i]++
					}
				}
			}()
		}
		wg.Wait()
	}
	return time.Since(t0).Seconds() / canaryReps / canaryRef
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
