package dag

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/piv"
)

// CALUOptions selects the scheduling split and block grouping used when
// building a CALU graph.
type CALUOptions struct {
	// NstaticCols is the number of leading block columns whose tasks are
	// scheduled statically (the paper's Nstatic = N*(1-dratio)). Zero
	// means fully dynamic; >= N means fully static.
	NstaticCols int
	// Group is the maximum number of owned block rows of one block
	// column fused into one S task (the paper's k, with k=3 in the
	// experiments); values <= 1 disable grouping. Grouping is only
	// applied where the shape reports the rows contiguous in storage
	// (layout.Shape.RowGroupWidth), so it is inert for 2l-BL.
	Group int
}

// leafRows is the panel height one tournament leaf covers at most: 4096
// rows of a 64-wide panel are 2 MB of leaf staging. A taller panel gets
// more leaves than grid rows, so a tall-skinny matrix on a one-row grid
// does not factor each whole panel as one serial GEPP while the other
// workers idle.
const leafRows = 4096

// CALUGraph couples the task graph with the pivoting state the tasks
// fill in as they execute. Run closures mutate Layout in place, so a
// CALUGraph must be executed at most once on the runtime; the simulator
// never calls Run and can replay the graph freely.
type CALUGraph struct {
	*Graph
	// Layout is the matrix storage being factored, read by the Run
	// closures when they run: nil in a graph built by NewCALU for
	// simulation, set by BuildCALU.
	Layout layout.Layout
	// StepSwaps[k] is the row-interchange sequence of panel step k,
	// recorded by the Final task; needed to assemble the global
	// permutation and to apply the deferred left swaps (Algorithm 1,
	// line 43).
	StepSwaps [][][2]int

	mu    sync.Mutex // guards cands across the tournament tasks
	cands [][]piv.Candidate
}

// BuildCALU constructs the CALU task graph the runtime executes for l's
// shape and binds it to l. It is NewCALU's graph except, under BCL, in
// the static section's trailing update: each step's S work on the
// static block columns past the look-ahead column is one task per
// owner, one kernel.GemmTiles call over the rectangle those blocks form
// in the owner's submatrix, where the BLAS packs each L slab once
// instead of once per block column. The look-ahead column and the
// dynamic section keep one S task per row run and block column, and CM
// and 2l-BL, whose owned blocks form no one rectangle, keep NewCALU's
// graph. Every block's arithmetic is the one its own task would run, so
// the two graphs factor to the same bits.
func BuildCALU(l layout.Layout, opt CALUOptions) *CALUGraph {
	cg := newCALU(layout.ShapeOf(l), opt, true)
	cg.Layout = l
	return cg
}

// NewCALU constructs the CALU task dependency graph of a matrix of shape
// s. The graph realizes Algorithm 1 (hybrid static/dynamic CALU) as
// data: the scheduling policy decides the execution order within the
// dependency and static-ownership constraints. It is the paper's
// per-block graph, which the simulator charges; the runtime executes
// BuildCALU's.
//
// Step k's tournament tree has max(grid rows, ceil(panel rows /
// leafRows)) leaves over contiguous runs of block rows: one per grid
// row, mirroring the static distribution where the owners of panel
// blocks run the P tasks, unless the panel is so tall that a leaf would
// exceed leafRows. A leaf belongs to the owner of its first block, and
// the binary combine tree pairs leaves in order.
func NewCALU(s layout.Shape, opt CALUOptions) *CALUGraph {
	return newCALU(s, opt, false)
}

// newCALU builds NewCALU's graph, or BuildCALU's when merge is set.
func newCALU(s layout.Shape, opt CALUOptions, merge bool) *CALUGraph {
	m, _, bsz := s.Dims()
	mb, nb := s.Blocks()
	grid := s.Grid()
	steps := min(mb, nb)
	group := max(opt.Group, 1)

	b := newBuilder(fmt.Sprintf("CALU(%s,Nstatic=%d,k=%d)", s.Kind(), opt.NstaticCols, group), grid.Workers())
	cg := &CALUGraph{
		Graph:     b.g,
		StepSwaps: make([][][2]int, steps),
		cands:     make([][]piv.Candidate, steps),
	}

	isStatic := func(col int) bool { return col < opt.NstaticCols }

	// updPrev maps (blockRow, blockCol) -> the step-(K-1) S task that
	// last wrote the block; nil map at step 0.
	var updPrev map[[2]int]*Task

	for k := 0; k < steps; k++ {
		rk, bw := s.BlockDims(k, k) // diagonal block height, panel width
		base := k * bsz             // first global row of the panel
		pivCount := min(bw, m-base)

		// ---- Tournament tree: leaves over contiguous runs of block rows.
		chunks := max(grid.PR, (m-base+leafRows-1)/leafRows)
		chunkBlocks := splitBlocks(k, mb, min(chunks, mb-k))
		cg.cands[k] = make([]piv.Candidate, 0, 2*len(chunkBlocks))
		newSlot := func() int {
			cg.cands[k] = append(cg.cands[k], piv.Candidate{})
			return len(cg.cands[k]) - 1
		}
		leafTasks := make([]*Task, len(chunkBlocks))
		leafSlots := make([]int, len(chunkBlocks))
		for c, blkRange := range chunkBlocks {
			i0, i1 := blkRange[0], blkRange[1]
			r0, r1 := i0*bsz, min(i1*bsz, m)
			slot := newSlot()
			leafSlots[c] = slot
			// GEPP on an r x b chunk costs ~ r*b^2 - b^3/3 flops.
			t := b.add(&Task{
				Kind: PLeaf, K: k, I: c,
				Owner:  s.Owner(i0, k),
				Static: isStatic(k),
				Flops:  float64(r1-r0)*float64(bw)*float64(bw) - float64(bw)*float64(bw)*float64(bw)/3,
				Bytes:  16 * float64(r1-r0) * float64(bw),
				Prio:   priority(k, k, PLeaf),
			})
			t.Run = func() {
				l := cg.Layout
				sc := getLeafScratch()
				defer putLeafScratch(sc)
				work, ids := sc.take(r1-r0, bw)
				// Stage the chunk one storage run at a time, so CM and
				// a one-row BCL grid copy it as one run.
				layout.WalkRuns(l, k, i0, i1, func(i int, run kernel.View) {
					off := i*bsz - r0
					kernel.Copy(work.Sub(off, off+run.Rows, 0, bw), run)
				})
				for x := range ids {
					ids[x] = r0 + x
				}
				// GEPP destroys the staging, so the winners' originals
				// come from the panel blocks. Nothing writes them before
				// this leaf returns: step k-1's S tasks precede it, and
				// step k's Final follows the tree's root.
				orig := func(x int) kernel.View {
					g := r0 + x
					return l.Block(g/bsz, k).Sub(g%bsz, g%bsz+1, 0, bw)
				}
				// The selection degrades gracefully on an exactly
				// singular chunk (prefix fallback), so an error here is a
				// real defect, not a property of the input; the runtime
				// converts the panic into a Factor error.
				cand, err := piv.SelectInPlace(work, ids, bw, orig, &sc.sel)
				if err != nil {
					panic(fmt.Sprintf("dag: TSLU leaf (step %d rows %d..%d): %v", k, r0, r1, err))
				}
				cg.mu.Lock()
				cg.cands[k][slot] = cand
				cg.mu.Unlock()
			}
			leafTasks[c] = t
			// A leaf reads the panel blocks of its chunk, which were last
			// written by step k-1's S tasks.
			if updPrev != nil {
				for i := i0; i < i1; i++ {
					b.edge(updPrev[[2]int{i, k}], t)
				}
			}
		}

		// ---- Binary combine tree.
		curTasks, curSlots := leafTasks, leafSlots
		lvl := 0
		for len(curTasks) > 1 {
			lvl++
			nextTasks := make([]*Task, 0, (len(curTasks)+1)/2)
			nextSlots := make([]int, 0, (len(curTasks)+1)/2)
			for i := 0; i < len(curTasks); i += 2 {
				if i+1 == len(curTasks) {
					nextTasks = append(nextTasks, curTasks[i])
					nextSlots = append(nextSlots, curSlots[i])
					continue
				}
				sa, sb, out := curSlots[i], curSlots[i+1], newSlot()
				// GEPP on the stacked 2b x b candidates: ~ (5/3) b^3 flops.
				t := b.add(&Task{
					Kind: PCombine, K: k, I: lvl*1024 + i/2,
					Owner:  curTasks[i].Owner,
					Static: isStatic(k),
					Flops:  (5.0 / 3.0) * float64(bw) * float64(bw) * float64(bw),
					Bytes:  32 * float64(bw) * float64(bw),
					Prio:   priority(k, k, PCombine),
				})
				t.Run = func() {
					cg.mu.Lock()
					ca, cb := cg.cands[k][sa], cg.cands[k][sb]
					cg.mu.Unlock()
					c, err := piv.Combine(ca, cb, bw)
					if err != nil {
						panic(fmt.Sprintf("dag: TSLU combine step %d: %v", k, err))
					}
					cg.mu.Lock()
					cg.cands[k][out] = c
					cg.mu.Unlock()
				}
				b.edge(curTasks[i], t)
				b.edge(curTasks[i+1], t)
				nextTasks = append(nextTasks, t)
				nextSlots = append(nextSlots, out)
			}
			curTasks, curSlots = nextTasks, nextSlots
		}
		rootTask, rootSlot := curTasks[0], curSlots[0]

		// ---- Final: apply winning swaps to the panel column and factor
		// the pivot block (plus any ragged rows inside the diagonal block).
		fin := b.add(&Task{
			Kind: Final, K: k,
			Owner:  s.Owner(k, k),
			Static: isStatic(k),
			Flops:  (2.0 / 3.0) * float64(bw) * float64(bw) * float64(bw),
			Bytes:  8 * float64(rk) * float64(bw),
			Prio:   priority(k, k, Final),
		})
		fin.Run = func() {
			l := cg.Layout
			cg.mu.Lock()
			winners := cg.cands[k][rootSlot].IDs
			cg.mu.Unlock()
			swaps := piv.Swaps(winners, base)
			cg.StepSwaps[k] = swaps
			layout.ApplySwaps(l, k, swaps)
			// A zero diagonal here means the whole panel was rank
			// deficient — no pivot candidate anywhere could fill the
			// column — which is exactly when reference GEPP fails too.
			// The panic becomes a Factor error, matching ReferenceLU's
			// graceful error return.
			diag := l.Block(k, k)
			if err := kernel.GetrfNoPiv(kernel.View{Rows: diag.Rows, Cols: bw, Stride: diag.Stride, Data: diag.Data}); err != nil {
				panic(fmt.Sprintf("dag: pivot block factorization step %d: %v", k, err))
			}
		}
		b.edge(rootTask, fin)

		// ---- L tasks, one per block row below the diagonal.
		lTasks := make(map[int]*Task, mb-k-1)
		for i := k + 1; i < mb; i++ {
			ri, _ := s.BlockDims(i, k)
			t := b.add(&Task{
				Kind: L, K: k, I: i,
				Owner:  s.Owner(i, k),
				Static: isStatic(k),
				Flops:  float64(ri) * float64(bw) * float64(bw),
				Bytes:  8 * (float64(ri)*float64(bw) + float64(bw)*float64(bw)),
				Prio:   priority(k, k, L),
			})
			t.Run = func() {
				diag := cg.Layout.Block(k, k)
				ukk := kernel.View{Rows: bw, Cols: bw, Stride: diag.Stride, Data: diag.Data}
				blk := cg.Layout.Block(i, k)
				kernel.TrsmUpperRight(ukk, kernel.View{Rows: blk.Rows, Cols: bw, Stride: blk.Stride, Data: blk.Data})
			}
			b.edge(fin, t)
			lTasks[i] = t
		}

		// ---- U tasks, one per trailing block column: lazy right swap,
		// triangular solve, and (ragged case) update of the extra rows
		// living inside the diagonal block row.
		uTasks := make(map[int]*Task, nb-k-1)
		for j := k + 1; j < nb; j++ {
			_, cj := s.BlockDims(k, j)
			t := b.add(&Task{
				Kind: U, K: k, J: j,
				Owner:  s.Owner(k, j),
				Static: isStatic(j),
				Flops:  float64(pivCount) * float64(pivCount) * float64(cj),
				Bytes:  8 * (float64(rk)*float64(cj) + float64(pivCount)*float64(pivCount)),
				Prio:   priority(j, k, U),
			})
			t.Run = func() {
				l := cg.Layout
				layout.ApplySwaps(l, j, cg.StepSwaps[k])
				diag := l.Block(k, k)
				lkk := kernel.View{Rows: pivCount, Cols: pivCount, Stride: diag.Stride, Data: diag.Data}
				blk := l.Block(k, j)
				top := kernel.View{Rows: pivCount, Cols: blk.Cols, Stride: blk.Stride, Data: blk.Data}
				kernel.TrsmLowerLeftUnit(lkk, top)
				if blk.Rows > pivCount {
					// Ragged diagonal block row: its extra rows hold L
					// entries and must be updated like a trailing block.
					low := kernel.View{Rows: blk.Rows - pivCount, Cols: blk.Cols, Stride: blk.Stride, Data: blk.Data[pivCount:]}
					llow := kernel.View{Rows: blk.Rows - pivCount, Cols: pivCount, Stride: diag.Stride, Data: diag.Data[pivCount:]}
					kernel.Gemm(low, llow, top)
				}
			}
			b.edge(fin, t)
			if updPrev != nil {
				for i := k; i < mb; i++ {
					b.edge(updPrev[[2]int{i, j}], t)
				}
			}
			uTasks[j] = t
		}

		// ---- S tasks: trailing update. Blocks that share the same column
		// and belong to the same owner are fused vertically into one
		// taller gemm where the layout is contiguous (the paper's k=3
		// grouping, section 3 — fusing along columns keeps every column's
		// progress independent, so the critical path is unaffected). In
		// BuildCALU's graph under BCL the static columns past the
		// look-ahead one are merged further, into one task per owner
		// (farUpdate).
		updCur := make(map[[2]int]*Task)
		rowRuns := groupRows(s, k, mb, group)
		far := map[int]*farUpdate{}
		for j := k + 1; j < nb; j++ {
			_, cj := s.BlockDims(k, j)
			merged := merge && s.Kind() == layout.BCL && j > k+1 && isStatic(j)
			// Every task of a column multiplies by the same U block,
			// packed once — by whichever task gets there first — behind
			// a refcounted handle with one use per row run (nil, that is
			// packed privately, with a single consumer).
			var pb *kernel.SharedPanel
			if !merged {
				pb = b.panel(kernel.NewSharedBPanel(len(rowRuns)))
			}
			for _, rows := range rowRuns {
				i0 := rows[0]
				totalRows := 0
				for _, i := range rows {
					ri, _ := s.BlockDims(i, j)
					totalRows += ri
				}
				flops := 2 * float64(totalRows) * float64(pivCount) * float64(cj)
				bytes := 8 * (float64(totalRows)*float64(pivCount) + float64(pivCount)*float64(cj) + float64(totalRows)*float64(cj))
				owner := s.Owner(i0, j)
				if merged {
					f := far[owner]
					if f == nil {
						f = &farUpdate{task: b.add(&Task{
							Kind: S, K: k, I: i0, J: j, Owner: owner, Static: true,
							Prio: priority(j, k, S),
						})}
						f.task.Run = func() { cg.updateFar(k, pivCount, f.runs, f.cols) }
						far[owner] = f
					}
					f.add(b, rows, j, lTasks, uTasks)
					f.task.Flops += flops
					f.task.Bytes += bytes
					for _, i := range rows {
						updCur[[2]int{i, j}] = f.task
					}
					continue
				}
				t := b.add(&Task{
					Kind: S, K: k, I: i0, J: j,
					Group:  rows,
					Owner:  owner,
					Static: isStatic(j),
					Flops:  flops,
					Bytes:  bytes,
					Prio:   priority(j, k, S),
				})
				t.Run = func() { cg.update(k, pivCount, rows, j, pb) }
				b.edge(uTasks[j], t)
				for _, i := range rows {
					b.edge(lTasks[i], t)
					updCur[[2]int{i, j}] = t
				}
			}
		}
		updPrev = updCur
	}
	return cg
}

// farUpdate is one merged S task of BuildCALU's graph: one owner's
// trailing update of step k on the static block columns past the
// look-ahead column. Its blocks form a grid, the owner's row runs by
// its block columns, because a fine S task's owner is fixed by its
// run's first block row and its column alone.
type farUpdate struct {
	task *Task
	runs [][]int // the row runs, top to bottom
	cols []int   // the block columns, left to right
}

// add records the fine S task (rows, j) as part of the merged one: the
// rows on its first column, the column on its first run, each with the
// dependency the fine task would have had.
func (f *farUpdate) add(b *builder, rows []int, j int, lTasks, uTasks map[int]*Task) {
	if len(f.cols) == 0 || f.cols[len(f.cols)-1] != j {
		f.cols = append(f.cols, j)
		b.edge(uTasks[j], f.task)
	}
	if j == f.cols[0] {
		f.runs = append(f.runs, rows)
		f.task.Group = append(f.task.Group, rows...)
		for _, i := range rows {
			b.edge(lTasks[i], f.task)
		}
	}
}

// updateFar runs a farUpdate: C(runs, cols) -= L(runs, k) * U(k, cols)
// over the first kk columns of L and rows of U. The owner's blocks are
// one rectangle of its BCL submatrix, updated by one GemmTiles call
// whose tiles are the fine tasks' blocks, so each block gets the bits
// its fine task computes.
func (cg *CALUGraph) updateFar(k, kk int, runs [][]int, cols []int) {
	l := cg.Layout.(*layout.BlockCyclic)
	rowEnds, colEnds := make([]int, len(runs)), make([]int, len(cols))
	m, n, blocks := 0, 0, 0
	for r, rows := range runs {
		for _, i := range rows {
			ri, _ := l.BlockDims(i, k)
			m += ri
		}
		rowEnds[r] = m
		blocks += len(rows)
	}
	for c, j := range cols {
		_, cj := l.BlockDims(k, j)
		n += cj
		colEnds[c] = n
	}
	i0, j0 := runs[0][0], cols[0]
	a := l.GroupedRows(i0, k, blocks).Sub(0, m, 0, kk)
	u := l.Rect(k, j0, 1, len(cols)).Sub(0, kk, 0, n)
	kernel.GemmTiles(l.Rect(i0, j0, blocks, len(cols)), a, u, rowEnds, colEnds)
}

// update runs the S task of step k on the row run rows and block column
// j: C(rows, j) -= L(rows, k) * U(k, j) over the first kk columns of L
// and rows of U, with U streamed from pb.
func (cg *CALUGraph) update(k, kk int, rows []int, j int, pb *kernel.SharedPanel) {
	l := cg.Layout
	i0, w := rows[0], len(rows)
	lv, u := l.GroupedRows(i0, k, w), l.Block(k, j)
	kernel.GemmShared(l.GroupedRows(i0, j, w), lv.Sub(0, lv.Rows, 0, kk), u.Sub(0, kk, 0, u.Cols), pb)
}

// leafScratch is the working set of one tournament leaf: the chunk's
// panel rows staged into a dense buffer that GEPP then factors in
// place, their global row ids, and the selection's pivot and
// permutation buffers. The candidate owns copies of what it keeps, so
// the scratch goes back to the free list when the leaf returns; a fresh
// set per leaf was a panel-sized allocation per step.
type leafScratch struct {
	vals []float64
	ids  []int
	sel  piv.Scratch
}

// The free list is explicit and global for the reason
// kernel/workspace.go gives for pack buffers: a sync.Pool is emptied by
// a GC cycle and caches per P, so a leaf that runs on a different
// worker than the panel's last one (any dynamic or helped leaf)
// re-allocated the whole panel staging. The bound keeps one scratch per
// leaf that can be running at once.
var (
	leafMu      sync.Mutex
	leafFree    []*leafScratch
	leafFreeCap = runtime.NumCPU()
)

func getLeafScratch() *leafScratch {
	leafMu.Lock()
	defer leafMu.Unlock()
	if n := len(leafFree); n > 0 {
		sc := leafFree[n-1]
		leafFree[n-1] = nil
		leafFree = leafFree[:n-1]
		return sc
	}
	return new(leafScratch)
}

func putLeafScratch(sc *leafScratch) {
	leafMu.Lock()
	if len(leafFree) < leafFreeCap {
		leafFree = append(leafFree, sc)
	}
	leafMu.Unlock()
}

// take returns an r x c view and r ids backed by the scratch, grown if
// needed. Contents are stale: the caller overwrites every element.
func (s *leafScratch) take(r, c int) (kernel.View, []int) {
	if cap(s.vals) < r*c {
		s.vals = make([]float64, r*c)
	}
	if cap(s.ids) < r {
		s.ids = make([]int, r)
	}
	return kernel.View{Rows: r, Cols: c, Stride: max(r, 1), Data: s.vals[:r*c]}, s.ids[:r]
}

// splitBlocks partitions block rows [k, mb) into nchunks contiguous,
// non-empty runs, returned as half-open block-row ranges.
func splitBlocks(k, mb, nchunks int) [][2]int {
	total := mb - k
	if nchunks > total {
		nchunks = total
	}
	per, rem := total/nchunks, total%nchunks
	out := make([][2]int, 0, nchunks)
	start := k
	for c := 0; c < nchunks; c++ {
		sz := per
		if c < rem {
			sz++
		}
		out = append(out, [2]int{start, start + sz})
		start += sz
	}
	return out
}

// groupRows plans the S-task row grouping for step k: it splits the
// trailing block rows into runs, each the block rows one S task stacks —
// more than one only where the shape reports them contiguous in storage
// (owned block rows are adjacent in BCL and CM storage, never in 2l-BL).
// Grouping is a property of the storage, so the same runs apply under
// every scheduling strategy (section 5.1.1); the union of runs covers
// every trailing block row exactly once.
func groupRows(s layout.Shape, k, mb, group int) [][]int {
	covered := make([]bool, mb)
	step := s.RowGroupStep()
	var runs [][]int
	for i := k + 1; i < mb; i++ {
		if covered[i] {
			continue
		}
		run := []int{i}
		for maxW := s.RowGroupWidth(i, k, group); len(run) < maxW; {
			next := i + len(run)*step
			if next >= mb || covered[next] {
				break
			}
			run = append(run, next)
		}
		for _, r := range run {
			covered[r] = true
		}
		runs = append(runs, run)
	}
	return runs
}
