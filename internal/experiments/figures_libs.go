package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sim"
)

func init() {
	register("fig16", "CALU vs MKL-style dgetrf vs PLASMA-style dgetrf_incpiv, Intel 16-core",
		func(scale float64, seed int64) (*Table, error) {
			return libraryComparison(sim.IntelXeon16(), 16, scale, seed,
				"Paper: CALU static(10% dynamic) is ~60% faster than MKL at n=10000 and up to "+
					"+82% at n=4000 (2l-BL); 20-30% over PLASMA's incremental pivoting for larger "+
					"matrices.")
		})
	register("fig17", "CALU vs MKL-style dgetrf vs PLASMA-style dgetrf_incpiv, AMD 48-core",
		func(scale float64, seed int64) (*Table, error) {
			return libraryComparison(sim.AMDOpteron48(), 48, scale, seed,
				"Paper: CALU static(10% dynamic) is ~100% (up to 110%) faster than MKL at "+
					"n=10000 even after interleaved NUMA placement, and 20-30% over PLASMA.")
		})
}

// libraryComparison generates Figures 16 and 17: CALU hybrid(10%) under
// both block layouts against the two library baselines.
func libraryComparison(m sim.Machine, workers int, scale float64, seed int64, note string) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("%s, %d workers (Gflop/s)", m.Name, workers),
		Columns: []string{"n", "CALU h10 (BCL)", "CALU h10 (2l-BL)",
			"MKL-like dgetrf", "PLASMA-like incpiv", "best vs MKL", "best vs PLASMA"},
	}
	for _, n0 := range []int{2500, 4000, 5000, 10000} {
		b := blockFor(n0)
		n := scaleN(n0, scale, b)
		bcl, err := simCALU(m, workers, n, b, core.Options{Layout: layout.BCL, DynamicRatio: 0.10}, seed)
		if err != nil {
			return nil, err
		}
		tl, err := simCALU(m, workers, n, b, core.Options{Layout: layout.TwoLevel, DynamicRatio: 0.10}, seed)
		if err != nil {
			return nil, err
		}
		mkl, err := simGEPP(m, workers, n, b, seed)
		if err != nil {
			return nil, err
		}
		plasma, err := simIncPiv(m, workers, n, b, seed)
		if err != nil {
			return nil, err
		}
		gb, gt := effGflops(n, bcl.Makespan), effGflops(n, tl.Makespan)
		gm, gp := effGflops(n, mkl.Makespan), effGflops(n, plasma.Makespan)
		best := gb
		if gt > best {
			best = gt
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			gf(gb), gf(gt), gf(gm), gf(gp),
			pct(best/gm - 1), pct(best/gp - 1),
		})
	}
	t.Notes = note
	return t, nil
}
