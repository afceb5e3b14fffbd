// Package experiments regenerates every table and figure of the
// paper's evaluation (section 5) plus the section 6 theorem validation
// and the section 7 exascale projection. Each experiment returns a
// Table whose rows mirror the series the paper plots; cmd/hsdfigures
// prints them, and TestExperimentsGolden pins every rendering.
//
// Hardware experiments run on the discrete-event machine models of
// internal/sim (this container has 2 cores; the paper's machines had 16
// and 48 — see DESIGN.md's substitution table), while Table 1 and the
// correctness columns run the real goroutine runtime on actual data.
package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries free-form commentary and ASCII timelines.
	Notes string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		b.WriteString(t.Notes)
		if !strings.HasSuffix(t.Notes, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// experiment is one registered generator.
type experiment struct {
	title string
	run   func(scale float64, seed int64) (*Table, error)
}

// order is the one order of the experiments, which IDs returns (and so
// hsdfigures -list and -exp all follow): the paper's figures, Table 1,
// Theorem 1 and the section 7 projection, then the help-tier ablation.
var order = []string{"fig1", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
	"table1", "thm1", "exascale", "help"}

var registry = map[string]experiment{}

func register(id, title string, run func(scale float64, seed int64) (*Table, error)) {
	registry[id] = experiment{title: title, run: run}
}

// IDs returns the experiment ids in paper order.
func IDs() []string { return slices.Clone(order) }

// Titles maps id to a human description.
func Titles() map[string]string {
	out := make(map[string]string, len(registry))
	for id, e := range registry {
		out[id] = e.title
	}
	return out
}

// Run regenerates one experiment. scale multiplies the paper's matrix
// sizes (1.0 = paper-sized; benches use smaller scales); seed drives
// the noise generators.
func Run(id string, scale float64, seed int64) (*Table, error) {
	if scale <= 0 {
		scale = 1
	}
	if e, ok := registry[id]; ok {
		return e.run(scale, seed)
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
}

// scaleN scales a paper matrix size and rounds it to a whole number of
// blocks (at least four, so every scheduling regime is exercised).
func scaleN(n int, scale float64, b int) int {
	s := int(math.Round(float64(n) * scale / float64(b)))
	if s < 4 {
		s = 4
	}
	return s * b
}

// blockFor picks the paper's block size for a matrix size: b=100 up to
// n=10000 and b=150 at n=15000 (which keeps the task counts tractable
// at the largest size, as the paper's own tuning would).
func blockFor(n int) int {
	if n >= 15000 {
		return 150
	}
	return 100
}

// simCALU simulates the CALU factorization core.Factor would run under
// opt, with the machine's noise drawn from seed: the static column count
// (Nstatic = N*(1-dratio)), the group size and the policy are the ones
// core derives from the options, so the simulator and the real runtime
// cannot disagree on the paper's rule.
func simCALU(m sim.Machine, workers, n, b int, opt core.Options, seed int64) (sim.Result, error) {
	nb := (n + b - 1) / b
	return sim.FactorSim(n, n, b, opt.NstaticCols(nb), opt.GroupSize(), sim.Config{
		Machine: m, Workers: workers, Layout: opt.Layout,
		Policy: opt.Policy(), Trace: opt.Trace, Seed: seed,
	})
}

// simGEPP runs the MKL-style baseline on the simulator. MKL packs its
// BLAS operands internally, so its kernel efficiency does not suffer
// from the user's column-major storage — we charge it the ungrouped
// block-layout rates. Its structural handicap is what the paper
// identifies: the sequential panel factorization on the critical path
// of a fork-join schedule.
func simGEPP(m sim.Machine, workers, n, b int, seed int64) (sim.Result, error) {
	g := dag.NewGEPP(layout.NewShape(layout.BCL, n, n, b, layout.NewGrid(workers)))
	return sim.Run(g.Graph, sim.Config{
		Machine: m, Workers: workers, Layout: layout.BCL,
		Policy: sched.NewDynamic(), Seed: seed,
	})
}

// simIncPiv runs the PLASMA-style baseline on the simulator: tile
// layout under a *static pipeline* schedule, which is PLASMA 2.x's
// default runtime — tiles stay with their owners, so it does not pay
// migration costs; what it pays is the extra flops and lower kernel
// efficiency of the incremental-pivoting updates.
func simIncPiv(m sim.Machine, workers, n, b int, seed int64) (sim.Result, error) {
	g := dag.NewIncPiv(layout.NewShape(layout.TwoLevel, n, n, b, layout.NewGrid(workers)))
	return sim.Run(g.Graph, sim.Config{
		Machine: m, Workers: workers, Layout: layout.TwoLevel,
		Policy: sched.NewStatic(), Seed: seed,
	})
}

// effGflops converts a makespan into effective Gflop/s using the
// canonical LU flop count 2n^3/3, the normalization the paper's figures
// use (so algorithms that perform extra flops, like incremental
// pivoting, are not credited for them).
func effGflops(n int, makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	return (2.0 / 3.0) * float64(n) * float64(n) * float64(n) / makespan / 1e9
}

func gf(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }
