package layout

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Every matrix copy in or out of a layout — pack, ToDense, core's factor
// extraction — is one walk over the layout's storage runs (WalkRuns)
// moving whole column pieces (kernel.Copy), never single elements.

// parallelCutoff is the matrix size in elements above which a walk
// forks. A constant, not an option: up to n = 512 (the engine's small
// jobs) a walk costs less than waking a goroutine, beyond idle cores help.
const parallelCutoff = 512 * 512

// fork runs part(0..parts-1) and returns when all are done: serially up
// to parallelCutoff elements, else on at most GOMAXPROCS goroutines,
// lane k taking parts k, k+lanes, …, so a wide grid multiplies none.
func fork(parts, elems int, part func(p int)) {
	lanes := min(parts, runtime.GOMAXPROCS(0))
	if lanes <= 1 || elems <= parallelCutoff {
		for p := 0; p < parts; p++ {
			part(p)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(lanes)
	for k := 0; k < lanes; k++ {
		go func(k int) {
			defer wg.Done()
			for p := k; p < parts; p += lanes {
				part(p)
			}
		}(k)
	}
	wg.Wait()
}

// WalkRuns calls visit once per storage run of block rows [i0, i1) of
// block column j, top to bottom, with the run's first block row and a
// view as tall as the run. A run is the block rows GroupedRows stacks,
// taken only where they are also adjacent in the matrix (RowGroupStep
// 1): under CM and under BCL on a one-row grid the whole range is one
// run; under 2l-BL, and under BCL with PR > 1, every block is its own
// run. Every block row of a run but the last is b tall, so run row r is
// global row i*b+r.
func WalkRuns(l Layout, j, i0, i1 int, visit func(i int, run kernel.View)) {
	s := ShapeOf(l)
	adjacent := s.RowGroupStep() == 1
	for i := i0; i < i1; {
		w := 1
		if adjacent {
			w = s.RowGroupWidth(i, j, i1-i)
		}
		visit(i, l.GroupedRows(i, j, w))
		i += w
	}
}

// build allocates a layout of shape s and fills it by owner: part w
// first-touches worker w's storage (its own sub[w] for BCL), then calls
// put — which writes exactly its run — on every run of the blocks w
// owns, so a static section starts on memory its owner brought in.
func build(s Shape, put func(i, j int, run kernel.View)) Layout {
	m, n, b, g := s.m, s.n, s.b, s.grid
	var l Layout
	own := func(int) {}
	switch s.kind {
	case CM:
		l = &ColMajor{Shape: s, a: mat.New(m, n)}
	case BCL:
		bc := &BlockCyclic{Shape: s, sub: make([]*mat.Dense, g.Workers())}
		l, own = bc, func(w int) {
			bc.sub[w] = mat.New(ownedSpan(m, b, w%g.PR, g.PR), ownedSpan(n, b, w/g.PR, g.PC))
		}
	case TwoLevel:
		l = &TwoLevelBlock{Shape: s, data: make([]float64, m*n)}
	default:
		panic(fmt.Sprintf("layout: unknown kind %d", int(s.kind)))
	}
	// Part w fills the block columns j ≡ w/rp (mod cp) and, in them, the
	// block rows i ≡ w (mod rp): exactly worker w's blocks. CM's single
	// array has no owner to honour, so it is dealt by whole columns.
	mb, nb := s.Blocks()
	rp, cp := g.PR, g.PC
	if s.kind == CM {
		rp, cp = 1, g.Workers()
	}
	fork(g.Workers(), m*n, func(w int) {
		own(w)
		for j := w / rp; j < nb; j += cp {
			if rp == 1 { // the whole column is w's
				WalkRuns(l, j, 0, mb, func(i int, run kernel.View) { put(i, j, run) })
				continue
			}
			for i := w % rp; i < mb; i += rp {
				put(i, j, l.Block(i, j))
			}
		}
	})
	return l
}

// WalkColumns calls visit once per storage run of l (see WalkRuns), with
// the run's first block. Above the parallel cutoff the block columns
// split into one contiguous range per grid worker, visited concurrently:
// visit must touch only what belongs to its run.
func WalkColumns(l Layout, visit func(i, j int, run kernel.View)) {
	m, n, _ := l.Dims()
	mb, nb := l.Blocks()
	parts := min(l.Grid().Workers(), nb)
	fork(parts, m*n, func(p int) {
		for j := p * nb / parts; j < (p+1)*nb/parts; j++ {
			WalkRuns(l, j, 0, mb, func(i int, run kernel.View) { visit(i, j, run) })
		}
	})
}

// denseView is the rows x cols view of d whose element (0,0) is d's
// element (r0, c0).
func denseView(d *mat.Dense, r0, c0, rows, cols int) kernel.View {
	return kernel.View{Rows: rows, Cols: cols, Stride: d.Stride, Data: d.Data[c0*d.Stride+r0:]}
}

// toDenseViaBlocks implements ToDense generically on top of WalkColumns.
func toDenseViaBlocks(l Layout) *mat.Dense {
	m, n, b := l.Dims()
	out := mat.New(m, n)
	WalkColumns(l, func(i, j int, run kernel.View) {
		kernel.Copy(denseView(out, i*b, j*b, run.Rows, run.Cols), run)
	})
	return out
}
