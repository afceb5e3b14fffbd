package dag

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
	"repro/internal/layout"
)

// GEPPOptions configures the MKL-style baseline builder.
type GEPPOptions struct {
	// Lookahead permits panel K+1 to start as soon as its own column is
	// updated. MKL 10.3-era dgetrf behaves like a fork-join code, so the
	// paper's comparison point is Lookahead=false: panel K+1 waits for
	// the whole step-K update (the structural bottleneck the paper
	// beats). Lookahead=true is provided for ablation studies.
	Lookahead bool
}

// GEPPGraph is the task graph of the classic blocked LU with partial
// pivoting ("MKL dgetrf" stand-in): a *sequential* panel factorization
// per step — the panel is on the critical path and is not parallelized,
// which is exactly why multithreaded LAPACK/MKL underperforms on many
// cores (section 2) — followed by a parallel trailing update.
type GEPPGraph struct {
	*Graph
	// Layout is the column-major storage being factored, read by the
	// Run closures when they run (see CALUGraph.Layout).
	Layout layout.Layout
	// StepSwaps mirrors CALUGraph: global row interchanges per step.
	StepSwaps [][][2]int
	PivCount  []int
}

// BuildGEPP constructs the baseline graph of l's shape (NewGEPP) and
// binds it to l, which must be column major: the tasks run on views of
// the whole matrix, as MKL does.
func BuildGEPP(l layout.Layout, opt GEPPOptions) *GEPPGraph {
	if l.Kind() != layout.CM {
		panic(fmt.Sprintf("dag: GEPP runs on column-major storage, not %s", l.Kind()))
	}
	gg := NewGEPP(layout.ShapeOf(l), opt)
	gg.Layout = l
	return gg
}

// NewGEPP constructs the baseline graph of a matrix of shape s. The
// simulator runs it over any layout kind; the Run closures read
// gg.Layout, which must then be column major.
func NewGEPP(s layout.Shape, opt GEPPOptions) *GEPPGraph {
	m, _, bsz := s.Dims()
	mb, nb := s.Blocks()
	steps := min(mb, nb)
	b := newBuilder(fmt.Sprintf("GEPP(%s)", s.Kind()), s.Grid().Workers())
	gg := &GEPPGraph{
		Graph:     b.g,
		StepSwaps: make([][][2]int, steps),
		PivCount:  make([]int, steps),
	}
	var updPrev map[[2]int]*Task
	var allPrev []*Task
	for k := 0; k < steps; k++ {
		_, bw := s.BlockDims(k, k)
		base := k * bsz
		rows := m - base
		pivCount := min(bw, rows)
		gg.PivCount[k] = pivCount

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
		if updPrev != nil {
			if opt.Lookahead {
				for i := k; i < mb; i++ {
					b.edge(updPrev[[2]int{i, k}], panel)
				}
			} else {
				for _, t := range allPrev {
					b.edge(t, panel)
				}
			}
		}

		uTasks := make(map[int]*Task, nb-k-1)
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
				lv := kernel.View{Rows: pivCount, Cols: pivCount, Stride: full.Stride, Data: full.Data[base*full.Stride+base:]}
				blk := l.Block(k, j)
				top := kernel.View{Rows: pivCount, Cols: blk.Cols, Stride: blk.Stride, Data: blk.Data}
				kernel.TrsmLowerLeftUnit(lv, top)
				if blk.Rows > pivCount {
					low := kernel.View{Rows: blk.Rows - pivCount, Cols: blk.Cols, Stride: blk.Stride, Data: blk.Data[pivCount:]}
					llow := kernel.View{Rows: blk.Rows - pivCount, Cols: pivCount, Stride: full.Stride, Data: full.Data[base*full.Stride+base+pivCount:]}
					kernel.Gemm(low, llow, top)
				}
			}
			b.edge(panel, t)
			if updPrev != nil && opt.Lookahead {
				for i := k; i < mb; i++ {
					b.edge(updPrev[[2]int{i, j}], t)
				}
			}
			uTasks[j] = t
		}

		updCur := make(map[[2]int]*Task)
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
				b.edge(uTasks[j], t)
				// The panel computed L in place, so S depends on the panel
				// transitively through U; the direct edge below keeps the
				// write to block (i,j) ordered after step k-1's write.
				if updPrev != nil && opt.Lookahead {
					b.edge(updPrev[[2]int{i, j}], t)
				}
				updCur[[2]int{i, j}] = t
				all = append(all, t)
			}
		}
		updPrev = updCur
		allPrev = all
	}
	return gg
}

// FinishPermutation mirrors CALUGraph.FinishPermutation for the GEPP
// baseline: assembles the global permutation and applies the deferred
// left swaps.
func (gg *GEPPGraph) FinishPermutation() []int {
	m, _, _ := gg.Layout.Dims()
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for _, swaps := range gg.StepSwaps {
		for _, sw := range swaps {
			perm[sw[0]], perm[sw[1]] = perm[sw[1]], perm[sw[0]]
		}
	}
	layout.ApplyLeftSwaps(gg.Layout, gg.StepSwaps)
	return perm
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

	mu sync.Mutex
	// ts[k*mb+i] stores the TSTRF elimination of step k against block
	// row i: the 2b x b unit-lower factors and the local pivot sequence,
	// replayed by the SSSSM tasks.
	ts map[int]*tstrfState
	// diagPiv[k] is the pivot sequence of the diagonal GETRF.
	diagPiv map[int][]int
}

type tstrfState struct {
	lfac []float64 // (b1+b2) x b1 column-major L factors
	rows int
	cols int
	piv  []int
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
		ts:      map[int]*tstrfState{},
		diagPiv: map[int][]int{},
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
			if err := kernel.Getf2(tile, pv); err != nil {
				panic(fmt.Sprintf("dag: incpiv GETRF %d: %v", k, err))
			}
			ig.mu.Lock()
			ig.diagPiv[k] = pv
			ig.mu.Unlock()
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
				ig.mu.Lock()
				pv := ig.diagPiv[k]
				ig.mu.Unlock()
				kernel.Laswp(tile, pv, 0, len(pv))
				lv := kernel.View{Rows: pivCount, Cols: pivCount, Stride: diag.Stride, Data: diag.Data}
				top := kernel.View{Rows: pivCount, Cols: tile.Cols, Stride: tile.Stride, Data: tile.Data}
				kernel.TrsmLowerLeftUnit(lv, top)
				if tile.Rows > pivCount {
					low := kernel.View{Rows: tile.Rows - pivCount, Cols: tile.Cols, Stride: tile.Stride, Data: tile.Data[pivCount:]}
					llow := kernel.View{Rows: tile.Rows - pivCount, Cols: pivCount, Stride: diag.Stride, Data: diag.Data[pivCount:]}
					kernel.Gemm(low, llow, top)
				}
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
			tstrf.Run = func() { ig.runTSTRF(k, i, bw) }
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
				ssssm.Run = func() { ig.runSSSSM(k, i, j) }
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
// across the 2b rows, storing the elimination so SSSSM can replay it.
func (ig *IncPivGraph) runTSTRF(k, i, bw int) {
	l := ig.Layout
	diag := l.Block(k, k)
	tile := l.Block(i, k)
	r1 := min(diag.Rows, bw) // U rows in the diagonal tile
	r2 := tile.Rows
	// Stack the upper triangle of the diagonal tile over the full tile.
	w := make([]float64, (r1+r2)*bw)
	wv := kernel.View{Rows: r1 + r2, Cols: bw, Stride: r1 + r2, Data: w}
	for j := 0; j < bw; j++ {
		for ii := 0; ii < r1; ii++ {
			if ii <= j {
				wv.Set(ii, j, diag.At(ii, j))
			}
		}
		for ii := 0; ii < r2; ii++ {
			wv.Set(r1+ii, j, tile.At(ii, j))
		}
	}
	pv := make([]int, min(r1+r2, bw))
	if err := kernel.Getf2(wv, pv); err != nil {
		panic(fmt.Sprintf("dag: incpiv TSTRF (%d,%d): %v", k, i, err))
	}
	// Write back: new U into the diagonal tile's upper triangle, L rows
	// of the bottom part into tile (i,k); keep the full L + pivots for
	// the SSSSM replays.
	st := &tstrfState{rows: r1 + r2, cols: bw, piv: pv, lfac: make([]float64, (r1+r2)*bw)}
	for j := 0; j < bw; j++ {
		for ii := 0; ii < r1+r2; ii++ {
			v := wv.At(ii, j)
			if ii <= j {
				if ii < r1 {
					diag.Set(ii, j, v) // updated U
				}
			} else {
				st.lfac[j*(r1+r2)+ii] = v
				if ii >= r1 {
					tile.Set(ii-r1, j, v)
				}
			}
		}
	}
	ig.mu.Lock()
	ig.ts[tsKey(k, i)] = st
	ig.mu.Unlock()
}

// runSSSSM replays the TSTRF elimination of (k,i) on the stacked pair
// [A_kj ; A_ij].
func (ig *IncPivGraph) runSSSSM(k, i, j int) {
	l := ig.Layout
	ig.mu.Lock()
	st := ig.ts[tsKey(k, i)]
	ig.mu.Unlock()
	if st == nil {
		panic(fmt.Sprintf("dag: SSSSM before TSTRF (%d,%d)", k, i))
	}
	top := l.Block(k, j)
	bot := l.Block(i, j)
	r1 := st.rows - bot.Rows
	cols := top.Cols
	z := make([]float64, st.rows*cols)
	zv := kernel.View{Rows: st.rows, Cols: cols, Stride: st.rows, Data: z}
	for c := 0; c < cols; c++ {
		for r := 0; r < r1; r++ {
			zv.Set(r, c, top.At(r, c))
		}
		for r := 0; r < bot.Rows; r++ {
			zv.Set(r1+r, c, bot.At(r, c))
		}
	}
	kernel.Laswp(zv, st.piv, 0, len(st.piv))
	lv := kernel.View{Rows: st.rows, Cols: st.cols, Stride: st.rows, Data: st.lfac}
	// Apply the unit-lower trapezoid eliminations column by column.
	for c := 0; c < st.cols; c++ {
		for r := c + 1; r < st.rows; r++ {
			lrc := lv.At(r, c)
			if lrc == 0 {
				continue
			}
			for cc := 0; cc < cols; cc++ {
				zv.Set(r, cc, zv.At(r, cc)-lrc*zv.At(c, cc))
			}
		}
	}
	for c := 0; c < cols; c++ {
		for r := 0; r < r1; r++ {
			top.Set(r, c, zv.At(r, c))
		}
		for r := 0; r < bot.Rows; r++ {
			bot.Set(r, c, zv.At(r1+r, c))
		}
	}
}

func tsKey(k, i int) int { return k<<20 | i }
