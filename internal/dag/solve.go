package dag

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
)

// SolveOptions configures BuildSolve.
type SolveOptions struct {
	// Block is the block-row height b of the RHS partition.
	Block int
	// Workers is the owner-computes distribution width: block row I of
	// the RHS is owned by worker I mod Workers, so a block row's sweep
	// work stays on one worker under static scheduling.
	Workers int
	// NstaticCols is the per-sweep static prefix: tasks whose output
	// block row sits in the first NstaticCols sweep positions are
	// owner-pinned, the rest feed the shared dynamic queue — the same
	// Nstatic = N*(1-dratio) split as CALU, applied to each sweep.
	NstaticCols int
	// UnitLower marks the lower factor unit-triangular (LU's L); a
	// Cholesky L carries a real diagonal.
	UnitLower bool
}

// SolveGraph is the task graph of a blocked two-sweep triangular solve
// T_U^{-1} T_L^{-1} X over an n x nrhs right-hand-side block, the solve
// counterpart of the factorization graphs: diagonal TRSM tasks on the
// critical chain, packed-GEMM updates carrying the off-diagonal flops,
// executed under the same hybrid static/dynamic machinery as CALU.
// Run closures solve X in place, so a SolveGraph executes at most once.
type SolveGraph struct {
	*Graph
	// X is the right-hand-side block being solved in place.
	X *mat.Dense
}

// BuildSolve constructs the blocked triangular-solve graph: one sweep
// over the block rows of X, run twice — forward, X <- lower^{-1} X top
// to bottom, then backward, X <- upper^{-1} X bottom to top.
//
//	DSolve(k): X_k <- T_kk^{-1} X_k          (diagonal TRSM)
//	RUpd(i,k): X_i <- X_i - T_ik * X_k       (packed GEMM)
//
// Priorities realize look-ahead along the diagonal chain: every task
// carries the sweep position of its *output* block row as its leading
// priority key, so DSolve(k+1) outranks the bulk updates RUpd(i,k) of
// rows i > k+1 and the critical chain races ahead exactly like the
// panel tasks of the factorization graphs. The dataflow edges fix the
// arithmetic completely, so results are bit-identical under every
// scheduling policy and worker count.
//
// lower and upper are read-only n x n triangles (column-major); only
// the relevant triangle of each is referenced. x is n x nrhs and is
// solved in place.
func BuildSolve(lower, upper, x *mat.Dense, opt SolveOptions) *SolveGraph {
	n, nrhs := x.Rows, x.Cols
	if lower.Rows != n || lower.Cols != n || upper.Rows != n || upper.Cols != n {
		panic(fmt.Sprintf("dag: solve triangles must be %dx%d, got L %dx%d U %dx%d",
			n, n, lower.Rows, lower.Cols, upper.Rows, upper.Cols))
	}
	bsz := opt.Block
	if bsz <= 0 {
		bsz = 32
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	nb := (n + bsz - 1) / bsz
	b := newBuilder(fmt.Sprintf("Solve(n=%d,nrhs=%d,b=%d,Nstatic=%d)", n, nrhs, bsz, opt.NstaticCols), workers)
	sg := &SolveGraph{Graph: b.g, X: x}

	tiles := layout.NewShape(layout.CM, n, n, bsz, layout.NewGrid(1))
	span := func(i int) int { r, _ := tiles.BlockDims(i, i); return r }
	xblk := func(i int) kernel.View {
		return kernel.View{Rows: span(i), Cols: nrhs, Stride: x.Stride, Data: x.Data[i*bsz:]}
	}
	// tri is block (i,j) of a factor triangle.
	tri := func(t *mat.Dense, i, j int) kernel.View {
		return kernel.View{Rows: span(i), Cols: span(j), Stride: t.Stride, Data: t.Data[j*bsz*t.Stride+i*bsz:]}
	}

	// prevW[i] is the last writer of X block row i. Reads of X_k only
	// ever happen after its final write of the current sweep (the chain
	// through the diagonal tasks orders them), so writer chains plus
	// reader edges off the diagonal tasks are the complete hazard set.
	prevW := make([]*Task, nb)

	// sweep adds the tasks of X <- T^{-1} X over triangle t: row(p) is
	// the block row at sweep position p, base offsets the leading
	// priority key, and solve is the diagonal blocks' triangular solve.
	// Every RUpd of one sweep step multiplies by the same solved block
	// X_k (final for the sweep once DSolve(k) ran), so the step's update
	// tasks share one packed copy of it.
	heights := make([]int, nb) // of the block rows, in the sweep's order
	sweep := func(t *mat.Dense, base int, row func(p int) int, solve func(tkk, xk kernel.View)) {
		for q := range heights {
			heights[q] = span(row(q))
		}
		for p := 0; p < nb; p++ {
			k := row(p)
			bk := span(k)
			diag := b.add(&Task{
				Kind: DSolve, K: k, I: k,
				Owner:  k % workers,
				Static: p < opt.NstaticCols,
				Flops:  float64(bk) * float64(bk) * float64(nrhs),
				Bytes:  8 * (float64(bk)*float64(bk)/2 + float64(bk)*float64(nrhs)),
				Prio:   priority(base+p, p, DSolve),
			})
			diag.Run = func() { solve(tri(t, k, k), xblk(k)) }
			b.edge(prevW[k], diag)
			prevW[k] = diag
			ph := b.panel(kernel.NewSharedBPanel(bk, nrhs, heights[p+1:]))
			for q := p + 1; q < nb; q++ {
				i := row(q)
				ri := span(i)
				upd := b.add(&Task{
					Kind: RUpd, K: k, I: i, J: k,
					Owner:  i % workers,
					Static: q < opt.NstaticCols,
					Flops:  2 * float64(ri) * float64(bk) * float64(nrhs),
					Bytes:  8 * (float64(ri)*float64(bk) + (float64(ri)+float64(bk))*float64(nrhs)),
					Prio:   priority(base+q, p, RUpd),
				})
				upd.Run = func() { kernel.GemmShared(xblk(i), tri(t, i, k), xblk(k), ph) }
				b.edge(diag, upd)
				b.edge(prevW[i], upd)
				prevW[i] = upd
			}
		}
	}

	// Forward sweep: X <- lower^{-1} X, block rows top to bottom. The
	// backward sweep X <- upper^{-1} X runs bottom to top, its priority
	// column continuing past the forward sweep's, so backward work sorts
	// after forward work and the backward diagonal chain keeps its
	// look-ahead.
	lowerSolve := kernel.TrsmLowerLeft
	if opt.UnitLower {
		lowerSolve = kernel.TrsmLowerLeftUnit
	}
	sweep(lower, 0, func(p int) int { return p }, lowerSolve)
	sweep(upper, nb, func(p int) int { return nb - 1 - p }, kernel.TrsmUpperLeft)
	return sg
}
