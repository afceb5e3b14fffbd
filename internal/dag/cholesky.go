package dag

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/layout"
)

// CholeskyGraph is the task graph of tiled Cholesky factorization
// (A = L*L^T, lower) under the same hybrid static/dynamic scheduling
// machinery as CALU. The paper's conclusion (section 9) claims the
// technique transfers to Cholesky; this builder realizes that
// future-work item. Cholesky has no pivoting, so its "panel" is a
// single POTRF tile and the hybrid split applies cleanly: tasks whose
// output column is below NstaticCols are owner-pinned, the rest feed
// the shared DFS queue.
type CholeskyGraph struct {
	*Graph
	// Layout is the storage being factored, read by the Run closures
	// when they run (see CALUGraph.Layout).
	Layout layout.Layout
}

// BuildCholesky constructs the tiled Cholesky graph of l's shape
// (NewCholesky) and binds it to l, ready for the runtime.
func BuildCholesky(l layout.Layout, opt CALUOptions) *CholeskyGraph {
	cg := NewCholesky(layout.ShapeOf(l), opt)
	cg.Layout = l
	return cg
}

// NewCholesky constructs the tiled Cholesky graph over the lower
// triangle of a square matrix of shape s:
//
//	POTRF(k):   A_kk = L_kk L_kk^T
//	TRSM(i,k):  A_ik <- A_ik L_kk^{-T}           (i > k)
//	UPD(i,j,k): A_ij <- A_ij - A_ik A_jk^T       (k < j <= i)
//
// Kind mapping for scheduling/cost purposes: POTRF -> Final,
// TRSM -> L, UPD -> S. The Run closures read cg.Layout when they run.
func NewCholesky(s layout.Shape, opt CALUOptions) *CholeskyGraph {
	m, n, _ := s.Dims()
	if m != n {
		panic(fmt.Sprintf("dag: cholesky needs a square matrix, got %dx%d", m, n))
	}
	mb, _ := s.Blocks()
	b := newBuilder(fmt.Sprintf("Cholesky(%s,Nstatic=%d)", s.Kind(), opt.NstaticCols), s.Grid().Workers())
	cg := &CholeskyGraph{Graph: b.g}

	isStatic := func(col int) bool { return col < opt.NstaticCols }

	// prev[(i,j)] is the last writer of tile (i,j) (lower triangle only).
	prev := map[[2]int]*Task{}
	for k := 0; k < mb; k++ {
		bk, _ := s.BlockDims(k, k)

		potrf := b.add(&Task{
			Kind: Final, K: k,
			Owner:  s.Owner(k, k),
			Static: isStatic(k),
			Flops:  float64(bk) * float64(bk) * float64(bk) / 3,
			Bytes:  8 * float64(bk) * float64(bk),
			Prio:   priority(k, k, Final),
		})
		potrf.Run = func() {
			if err := kernel.Potf2(cg.Layout.Block(k, k)); err != nil {
				panic(fmt.Sprintf("dag: POTRF step %d: %v", k, err))
			}
		}
		b.edge(prev[[2]int{k, k}], potrf)

		trsm := make(map[int]*Task, mb-k-1)
		for i := k + 1; i < mb; i++ {
			ri, _ := s.BlockDims(i, k)
			t := b.add(&Task{
				Kind: L, K: k, I: i,
				Owner:  s.Owner(i, k),
				Static: isStatic(k),
				Flops:  float64(ri) * float64(bk) * float64(bk),
				Bytes:  8 * (float64(ri)*float64(bk) + float64(bk)*float64(bk)),
				Prio:   priority(k, k, L),
			})
			t.Run = func() {
				kernel.TrsmRightLowerTrans(cg.Layout.Block(k, k), cg.Layout.Block(i, k))
			}
			b.edge(potrf, t)
			b.edge(prev[[2]int{i, k}], t)
			trsm[i] = t
			prev[[2]int{i, k}] = t
		}

		for j := k + 1; j < mb; j++ {
			for i := j; i < mb; i++ {
				ri, cj := s.BlockDims(i, j)
				t := b.add(&Task{
					Kind: S, K: k, I: i, J: j,
					Owner:  s.Owner(i, j),
					Static: isStatic(j),
					Flops:  2 * float64(ri) * float64(bk) * float64(cj),
					Bytes:  8 * (float64(ri)*float64(bk) + float64(cj)*float64(bk) + float64(ri)*float64(cj)),
					Prio:   priority(j, k, S),
				})
				t.Run = func() {
					l := cg.Layout
					kernel.GemmNT(l.Block(i, j), l.Block(i, k), l.Block(j, k))
				}
				b.edge(trsm[i], t)
				if i != j {
					b.edge(trsm[j], t)
				}
				b.edge(prev[[2]int{i, j}], t)
				prev[[2]int{i, j}] = t
			}
		}
		prev[[2]int{k, k}] = potrf
	}
	return cg
}
