package layout

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Every matrix copy in or out of a layout — pack, ToDense, core's
// factor extraction, Encode, Decode — is one walk over the layout's
// blocks moving whole column runs (kernel.Copy), never single elements.

// parallelCutoff is the matrix size in elements above which a walk
// forks. A constant, not an option: up to n = 512 (the engine's small
// jobs) a walk costs less than waking a goroutine, beyond idle cores help.
const parallelCutoff = 512 * 512

// fork runs part(0..parts-1) and returns when all are done: serially up
// to parallelCutoff elements, else fork-join on at most GOMAXPROCS
// goroutines, lane k taking parts k, k+lanes, … — a grid wider than the
// machine (or a decoded header claiming one) multiplies no goroutines.
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

// build allocates a layout of the given kind and shape and fills it by
// owner: part w first-touches worker w's storage (its own sub[w] for
// BCL), then calls put — which writes exactly its block — on every
// block w owns, so a static section starts on memory its owner brought in.
func build(kind Kind, m, n, b int, g Grid, put func(i, j int, blk kernel.View)) Layout {
	if b <= 0 {
		panic("layout: block size must be positive")
	}
	var l Layout
	own := func(int) {}
	switch kind {
	case CM:
		l = &ColMajor{m: m, n: n, b: b, grid: g, a: mat.New(m, n)}
	case BCL:
		bc := &BlockCyclic{m: m, n: n, b: b, grid: g, sub: make([]*mat.Dense, g.Workers())}
		l, own = bc, func(w int) {
			bc.sub[w] = mat.New(ownedSpan(m, b, w%g.PR, g.PR), ownedSpan(n, b, w/g.PR, g.PC))
		}
	case TwoLevel:
		l = &TwoLevelBlock{m: m, n: n, b: b, grid: g, data: make([]float64, m*n)}
	default:
		panic(fmt.Sprintf("layout: unknown kind %d", int(kind)))
	}
	mb, nb := l.Blocks()
	fork(g.Workers(), m*n, func(w int) {
		own(w)
		for j := w / g.PR; j < nb; j += g.PC {
			for i := w % g.PR; i < mb; i += g.PR {
				put(i, j, l.Block(i, j))
			}
		}
	})
	return l
}

// WalkColumns calls visit once per block of l. Above the parallel cutoff
// the block columns split into one contiguous range per grid worker,
// visited concurrently: visit must touch only what belongs to its block.
func WalkColumns(l Layout, visit func(i, j int, blk kernel.View)) {
	m, n, _ := l.Dims()
	mb, nb := l.Blocks()
	parts := min(l.Grid().Workers(), nb)
	fork(parts, m*n, func(p int) {
		for j := p * nb / parts; j < (p+1)*nb/parts; j++ {
			for i := 0; i < mb; i++ {
				visit(i, j, l.Block(i, j))
			}
		}
	})
}

// denseBlock is the view of block (i,j) of d under block size b.
func denseBlock(d *mat.Dense, i, j, b int) kernel.View {
	return kernel.View{
		Rows:   blockSpan(i, b, d.Rows),
		Cols:   blockSpan(j, b, d.Cols),
		Stride: d.Stride,
		Data:   d.Data[j*b*d.Stride+i*b:],
	}
}

// toDenseViaBlocks implements ToDense generically on top of Block.
func toDenseViaBlocks(l Layout) *mat.Dense {
	m, n, b := l.Dims()
	out := mat.New(m, n)
	WalkColumns(l, func(i, j int, blk kernel.View) {
		kernel.Copy(denseBlock(out, i, j, b), blk)
	})
	return out
}
