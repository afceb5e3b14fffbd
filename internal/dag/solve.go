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

// BuildSolve constructs the blocked triangular-solve graph: a forward
// sweep X <- lower^{-1} X over the block rows of X, then the mirrored
// backward sweep X <- upper^{-1} X.
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

	// Every RUpd of one sweep step multiplies by the same solved block
	// X_k (final for the sweep once DSolve(k) ran), so the step's update
	// tasks share one packed copy of it.
	//
	// Forward sweep: X <- lower^{-1} X, block rows top to bottom.
	for k := 0; k < nb; k++ {
		kk := k
		bk := span(k)
		diag := b.add(&Task{
			Kind: DSolve, K: k, I: k,
			Owner:  k % workers,
			Static: k < opt.NstaticCols,
			Flops:  float64(bk) * float64(bk) * float64(nrhs),
			Bytes:  8 * (float64(bk)*float64(bk)/2 + float64(bk)*float64(nrhs)),
			Prio:   priority(k, k, DSolve),
		})
		diag.Run = func() {
			if opt.UnitLower {
				kernel.TrsmLowerLeftUnit(tri(lower, kk, kk), xblk(kk))
			} else {
				kernel.TrsmLowerLeft(tri(lower, kk, kk), xblk(kk))
			}
		}
		b.edge(prevW[k], diag)
		prevW[k] = diag
		ph := b.panel(kernel.NewSharedBPanel(nb - k - 1))
		for i := k + 1; i < nb; i++ {
			ic := i
			ri := span(i)
			upd := b.add(&Task{
				Kind: RUpd, K: k, I: i, J: k,
				Owner:  i % workers,
				Static: i < opt.NstaticCols,
				Flops:  2 * float64(ri) * float64(bk) * float64(nrhs),
				Bytes:  8 * (float64(ri)*float64(bk) + (float64(ri)+float64(bk))*float64(nrhs)),
				Prio:   priority(i, k, RUpd),
			})
			upd.Run = func() {
				kernel.GemmShared(xblk(ic), tri(lower, ic, kk), xblk(kk), ph)
			}
			b.edge(diag, upd)
			b.edge(prevW[i], upd)
			prevW[i] = upd
		}
	}

	// Backward sweep: X <- upper^{-1} X, block rows bottom to top. The
	// priority column continues past the forward sweep (nb + distance
	// from the bottom), so backward work sorts after forward work and
	// the backward diagonal chain keeps its look-ahead.
	for k := nb - 1; k >= 0; k-- {
		kk := k
		bk := span(k)
		pos := nb - 1 - k // sweep position of this step
		diag := b.add(&Task{
			Kind: DSolve, K: k, I: k,
			Owner:  k % workers,
			Static: pos < opt.NstaticCols,
			Flops:  float64(bk) * float64(bk) * float64(nrhs),
			Bytes:  8 * (float64(bk)*float64(bk)/2 + float64(bk)*float64(nrhs)),
			Prio:   priority(nb+pos, pos, DSolve),
		})
		diag.Run = func() {
			kernel.TrsmUpperLeft(tri(upper, kk, kk), xblk(kk))
		}
		b.edge(prevW[k], diag)
		prevW[k] = diag
		ph := b.panel(kernel.NewSharedBPanel(k))
		for i := k - 1; i >= 0; i-- {
			ic := i
			ri := span(i)
			upd := b.add(&Task{
				Kind: RUpd, K: k, I: i, J: k,
				Owner:  i % workers,
				Static: nb-1-i < opt.NstaticCols,
				Flops:  2 * float64(ri) * float64(bk) * float64(nrhs),
				Bytes:  8 * (float64(ri)*float64(bk) + (float64(ri)+float64(bk))*float64(nrhs)),
				Prio:   priority(nb+(nb-1-i), pos, RUpd),
			})
			upd.Run = func() {
				kernel.GemmShared(xblk(ic), tri(upper, ic, kk), xblk(kk), ph)
			}
			b.edge(diag, upd)
			b.edge(prevW[i], upd)
			prevW[i] = upd
		}
	}
	return sg
}
