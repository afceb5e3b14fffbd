package dag

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/layout"
)

// GEPPGraph is the task graph of the classic blocked LU with partial
// pivoting ("MKL dgetrf" stand-in): a *sequential* panel factorization
// per step — the panel is on the critical path and is not parallelized,
// which is exactly why multithreaded LAPACK/MKL underperforms on many
// cores (section 2) — followed by a parallel trailing update. MKL
// 10.3-era dgetrf behaves like a fork-join code, so panel K+1 waits for
// the whole step-K update: the structural bottleneck the paper beats.
type GEPPGraph struct {
	*Graph
	// Layout is the column-major storage being factored, read by the
	// Run closures when they run (see CALUGraph.Layout).
	Layout layout.Layout
	// StepSwaps mirrors CALUGraph: global row interchanges per step.
	StepSwaps [][][2]int
}

// BuildGEPP constructs the baseline graph of l's shape (NewGEPP) and
// binds it to l, which must be column major: the tasks run on views of
// the whole matrix, as MKL does.
func BuildGEPP(l layout.Layout) *GEPPGraph {
	if l.Kind() != layout.CM {
		panic(fmt.Sprintf("dag: GEPP runs on column-major storage, not %s", l.Kind()))
	}
	gg := NewGEPP(layout.ShapeOf(l))
	gg.Layout = l
	return gg
}

// NewGEPP constructs the baseline graph of a matrix of shape s. The
// simulator runs it over any layout kind; the Run closures read
// gg.Layout, which must then be column major.
func NewGEPP(s layout.Shape) *GEPPGraph {
	m, _, bsz := s.Dims()
	mb, nb := s.Blocks()
	steps := min(mb, nb)
	b := newBuilder(fmt.Sprintf("GEPP(%s)", s.Kind()), s.Grid().Workers())
	gg := &GEPPGraph{
		Graph:     b.g,
		StepSwaps: make([][][2]int, steps),
	}
	var allPrev []*Task
	for k := 0; k < steps; k++ {
		_, bw := s.BlockDims(k, k)
		base := k * bsz
		rows := m - base
		pivCount := min(bw, rows)

		panel := b.add(&Task{
			Kind: Final, K: k,
			Owner: s.Owner(k, k),
			Flops: 2 * float64(rows) * float64(bw) * float64(bw),
			Bytes: 8 * float64(rows) * float64(bw),
			Prio:  priority(k, k, Final),
		})
		panel.Run = func() {
			full := gg.Layout.Block(0, 0) // whole matrix view (stride = m)
			pv := kernel.View{Rows: rows, Cols: bw, Stride: full.Stride, Data: full.Data[base*full.Stride+base:]}
			pivots := make([]int, pivCount)
			if err := kernel.RecursiveLU(pv, pivots); err != nil {
				panic(fmt.Sprintf("dag: GEPP panel %d: %v", k, err))
			}
			swaps := make([][2]int, 0, pivCount)
			for t, p := range pivots {
				if p != t {
					swaps = append(swaps, [2]int{base + t, base + p})
				}
			}
			gg.StepSwaps[k] = swaps
		}
		for _, t := range allPrev {
			b.edge(t, panel)
		}

		uTasks := make([]*Task, nb)
		for j := k + 1; j < nb; j++ {
			_, cj := s.BlockDims(k, j)
			t := b.add(&Task{
				Kind: U, K: k, J: j,
				Owner: s.Owner(k, j),
				Flops: float64(pivCount) * float64(pivCount) * float64(cj),
				Bytes: 8 * (float64(rows)*float64(cj) + float64(pivCount)*float64(pivCount)),
				Prio:  priority(j, k, U),
			})
			t.Run = func() {
				l := gg.Layout
				layout.ApplySwaps(l, j, gg.StepSwaps[k])
				full := l.Block(0, 0)
				diag := kernel.View{Stride: full.Stride, Data: full.Data[base*full.Stride+base:]}
				solveU(diag, l.Block(k, j), pivCount)
			}
			b.edge(panel, t)
			uTasks[j] = t
		}

		var all []*Task
		for i := k + 1; i < mb; i++ {
			for j := k + 1; j < nb; j++ {
				ri, cj := s.BlockDims(i, j)
				t := b.add(&Task{
					Kind: S, K: k, I: i, J: j,
					Owner: s.Owner(i, j),
					Flops: 2 * float64(ri) * float64(pivCount) * float64(cj),
					Bytes: 8 * (float64(ri)*float64(pivCount) + float64(pivCount)*float64(cj) + float64(ri)*float64(cj)),
					Prio:  priority(j, k, S),
				})
				t.Run = func() {
					l := gg.Layout
					lblk := l.Block(i, k)
					a := kernel.View{Rows: lblk.Rows, Cols: pivCount, Stride: lblk.Stride, Data: lblk.Data}
					ublk := l.Block(k, j)
					bt := kernel.View{Rows: pivCount, Cols: ublk.Cols, Stride: ublk.Stride, Data: ublk.Data}
					kernel.Gemm(l.Block(i, j), a, bt)
				}
				// The panel computed L in place, so S depends on the panel
				// transitively through U, and on step k-1's writes through
				// the panel.
				b.edge(uTasks[j], t)
				all = append(all, t)
			}
		}
		allPrev = all
	}
	return gg
}

// IncPivGraph is the task graph of tiled LU with incremental pivoting,
// the algorithm behind PLASMA's dgetrf_incpiv (section 5.3): pivoting
// is confined to tile pairs, which removes the panel factorization from
// the critical path at the cost of extra flops in the SSSSM updates and
// a weaker pivoting strategy (the stability concern the paper cites).
type IncPivGraph struct {
	*Graph
	// Layout is the storage being factored, read by the Run closures
	// when they run (see CALUGraph.Layout).
	Layout layout.Layout

	// diagPiv[k] is the pivot sequence of step k's diagonal GETRF and
	// ts[k*mb+i] the TSTRF elimination of step k against block row i.
	// Each entry is written by one task and read only by that task's
	// successors, so the graph's edges order every access.
	diagPiv [][]int
	ts      []tstrfState
}

// tstrfState is one TSTRF elimination, replayed by the SSSSM tasks of
// its block row: the stacked factor of [U_kk ; A_ik], whose strict lower
// part is the L they apply, and its pivots.
type tstrfState struct {
	lu  kernel.View
	piv []int
}

// IncPivFlopOverhead is the extra-flop factor incremental pivoting pays
// in its stacked-tile updates relative to a plain gemm update; PLASMA's
// inner blocking keeps it well under the naive 2x, and the simulator
// charges this calibrated value.
const IncPivFlopOverhead = 1.18

// BuildIncPiv constructs the incremental-pivoting graph of l's shape
// (NewIncPiv) and binds it to l. The baseline runs it over 2l-BL, as
// PLASMA stores tiles.
func BuildIncPiv(l layout.Layout) *IncPivGraph {
	ig := NewIncPiv(layout.ShapeOf(l))
	ig.Layout = l
	return ig
}

// NewIncPiv constructs the incremental-pivoting graph of a matrix of
// shape s. The Run closures read ig.Layout when they run.
func NewIncPiv(s layout.Shape) *IncPivGraph {
	mb, nb := s.Blocks()
	steps := min(mb, nb)
	b := newBuilder(fmt.Sprintf("IncPiv(%s)", s.Kind()), s.Grid().Workers())
	ig := &IncPivGraph{
		Graph:   b.g,
		diagPiv: make([][]int, steps),
		ts:      make([]tstrfState, steps*mb),
	}

	// prev[(i,j)] is the last task that wrote tile (i,j).
	prev := map[[2]int]*Task{}
	for k := 0; k < steps; k++ {
		rk, bw := s.BlockDims(k, k)
		pivCount := min(bw, rk)

		getrf := b.add(&Task{
			Kind: Final, K: k,
			Owner: s.Owner(k, k),
			Flops: (2.0 / 3.0) * float64(bw) * float64(bw) * float64(bw),
			Bytes: 8 * float64(rk) * float64(bw),
			Prio:  priority(k, k, Final),
		})
		getrf.Run = func() {
			tile := ig.Layout.Block(k, k)
			pv := make([]int, min(tile.Rows, tile.Cols))
			if err := kernel.Getrf(tile, pv); err != nil {
				panic(fmt.Sprintf("dag: incpiv GETRF %d: %v", k, err))
			}
			ig.diagPiv[k] = pv
		}
		b.edge(prev[[2]int{k, k}], getrf)

		gessm := make(map[int]*Task, nb-k-1)
		for j := k + 1; j < nb; j++ {
			_, cj := s.BlockDims(k, j)
			t := b.add(&Task{
				Kind: U, K: k, J: j,
				Owner: s.Owner(k, j),
				Flops: float64(pivCount) * float64(pivCount) * float64(cj),
				Bytes: 8 * (float64(rk)*float64(cj) + float64(pivCount)*float64(pivCount)),
				Prio:  priority(j, k, U),
			})
			t.Run = func() {
				diag := ig.Layout.Block(k, k)
				tile := ig.Layout.Block(k, j)
				pv := ig.diagPiv[k]
				kernel.Laswp(tile, pv, 0, len(pv))
				solveU(diag, tile, pivCount)
			}
			b.edge(getrf, t)
			b.edge(prev[[2]int{k, j}], t)
			gessm[j] = t
		}

		// TSTRF chain down the panel; each SSSSM row chain follows it.
		prevDiagWriter := getrf
		rowU := make(map[int]*Task, nb-k-1) // last writer of tile (k,j) in this step's chain
		for j := k + 1; j < nb; j++ {
			rowU[j] = gessm[j]
		}
		for i := k + 1; i < mb; i++ {
			ri, _ := s.BlockDims(i, k)
			tstrf := b.add(&Task{
				Kind: L, K: k, I: i,
				Owner: s.Owner(i, k),
				Flops: float64(ri) * float64(bw) * float64(bw) * IncPivFlopOverhead,
				Bytes: 8 * (float64(ri) + float64(bw)) * float64(bw),
				Prio:  priority(k, k, L),
			})
			st := &ig.ts[k*mb+i]
			tstrf.Run = func() { ig.runTSTRF(k, i, st) }
			b.edge(prevDiagWriter, tstrf)
			b.edge(prev[[2]int{i, k}], tstrf)
			prevDiagWriter = tstrf

			for j := k + 1; j < nb; j++ {
				_, cj := s.BlockDims(i, j)
				ssssm := b.add(&Task{
					Kind: S, K: k, I: i, J: j,
					Owner: s.Owner(i, j),
					Flops: 2 * float64(ri) * float64(pivCount) * float64(cj) * IncPivFlopOverhead,
					Bytes: 8 * (float64(ri)*float64(pivCount) + float64(pivCount)*float64(cj) + 2*float64(ri)*float64(cj)),
					Prio:  priority(j, k, S),
				})
				ssssm.Run = func() { ig.runSSSSM(k, i, j, st) }
				b.edge(tstrf, ssssm)
				b.edge(rowU[j], ssssm)
				b.edge(prev[[2]int{i, j}], ssssm)
				rowU[j] = ssssm
				prev[[2]int{i, j}] = ssssm
			}
			prev[[2]int{i, k}] = tstrf
		}
		prev[[2]int{k, k}] = prevDiagWriter
		for j := k + 1; j < nb; j++ {
			prev[[2]int{k, j}] = rowU[j]
		}
	}
	return ig
}

// runTSTRF factors the stacked pair [U_kk ; A_ik] with partial pivoting
// across its rows. The new U goes back into the diagonal tile's upper
// triangle and the bottom rows' L into A_ik; the whole stacked factor
// stays in st for the SSSSM replays. Only the upper triangle of the
// diagonal tile is read or written: GESSM reads its lower triangle,
// GETRF's L, at the same time.
func (ig *IncPivGraph) runTSTRF(k, i int, st *tstrfState) {
	diag := ig.Layout.Block(k, k)
	tile := ig.Layout.Block(i, k)
	// Step k is not the last block row, so the diagonal tile has at
	// least bw rows.
	bw, r := tile.Cols, tile.Cols+tile.Rows
	w := kernel.View{Rows: r, Cols: bw, Stride: r, Data: make([]float64, r*bw)}
	for j := 0; j < bw; j++ {
		copy(w.Data[j*r:j*r+j+1], diag.Data[j*diag.Stride:])
	}
	kernel.Copy(w.Sub(bw, r, 0, bw), tile)
	pv := make([]int, bw)
	if err := kernel.Getrf(w, pv); err != nil {
		panic(fmt.Sprintf("dag: incpiv TSTRF (%d,%d): %v", k, i, err))
	}
	for j := 0; j < bw; j++ {
		copy(diag.Data[j*diag.Stride:j*diag.Stride+j+1], w.Data[j*r:])
	}
	kernel.Copy(tile, w.Sub(bw, r, 0, bw))
	*st = tstrfState{lu: w, piv: pv}
}

// runSSSSM replays st, the TSTRF elimination of block row i at step k,
// on the stacked pair [A_kj ; A_ij] in place: st's pivots swap rows
// within and across the two tiles, then A_kj <- L11^{-1} A_kj and
// A_ij -= L21 A_kj.
func (ig *IncPivGraph) runSSSSM(k, i, j int, st *tstrfState) {
	top := ig.Layout.Block(k, j)
	bot := ig.Layout.Block(i, j)
	bw, r := st.lu.Cols, st.lu.Rows
	for c := 0; c < top.Cols; c++ {
		tc, bc := top.Data[c*top.Stride:], bot.Data[c*bot.Stride:]
		for t, p := range st.piv {
			if p < bw {
				tc[t], tc[p] = tc[p], tc[t]
			} else {
				tc[t], bc[p-bw] = bc[p-bw], tc[t]
			}
		}
	}
	kernel.TrsmLowerLeftUnit(st.lu.Sub(0, bw, 0, bw), top)
	kernel.Gemm(bot, st.lu.Sub(bw, r, 0, bw), top)
}
