package analysis

import "go/ast"

// This file is the dataflow half of the engine: a forward worklist
// solver over the CFG, parameterized by a per-analyzer lattice. Facts
// flow block-to-block; within a block the transfer function folds one
// statement at a time, so analyzers observe every evaluation point.
//
// The solver is deliberately small: its lattices (lockorder's may-hold
// lock sets) are finite powersets over objects
// that appear in one function, so termination follows from
// monotonicity. A generous iteration cap turns a non-monotone transfer
// function (an analyzer bug) into a loud panic instead of a hang.

// Lattice defines the join semilattice a dataflow fact lives in.
// Implementations must be monotone: Join(a, b) must be an upper bound
// of both, and Transfer must not shrink under Join.
type Lattice[F any] interface {
	// Bottom is the initial fact of every block but the entry.
	Bottom() F
	// Join merges the facts of two predecessors.
	Join(a, b F) F
	// Equal reports fact equality (fixpoint detection).
	Equal(a, b F) bool
	// Clone returns an independent copy callers may mutate.
	Clone(a F) F
}

// Transfer folds one statement into a fact, returning the fact after
// the statement. It may mutate and return in (the solver clones at
// block boundaries).
type Transfer[F any] func(stmt ast.Stmt, in F) F

// maxPasses bounds worklist iterations per CFG: facts are powersets
// over a function's locks/vars, so height is small; 4 passes per block
// per lattice element would already be extreme. Exceeding the cap means
// a broken lattice, and panicking beats silently looping.
const maxPasses = 1 << 14

// ForwardSolve runs the worklist to fixpoint and returns each block's
// IN fact. entry seeds the entry block; every other block starts at
// Bottom.
func ForwardSolve[F any](g *CFG, lat Lattice[F], tr Transfer[F], entry F) map[*Block]F {
	in := make(map[*Block]F, len(g.Blocks))
	out := make(map[*Block]F, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = lat.Bottom()
		out[b] = lat.Bottom()
	}
	in[g.Entry] = entry

	// Worklist seeded in block-creation order (roughly source order, so
	// the common acyclic case converges in one sweep).
	queued := make([]bool, len(g.Blocks))
	var work []*Block
	push := func(b *Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range g.Blocks {
		push(b)
	}

	passes := 0
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		if passes++; passes > maxPasses {
			panic("analysis: dataflow did not converge (non-monotone transfer function?)")
		}

		f := lat.Clone(in[b])
		for _, s := range b.Stmts {
			f = tr(s, f)
		}
		if lat.Equal(f, out[b]) {
			continue
		}
		out[b] = f
		for _, s := range b.Succs {
			j := lat.Join(in[s], f)
			if !lat.Equal(j, in[s]) {
				in[s] = j
				push(s)
			}
		}
	}
	return in
}

// FoldBlock replays the transfer function over a block's statements
// from a given IN fact — how analyzers do their reporting pass once the
// solver has stabilized, observing the exact fact at each statement.
func FoldBlock[F any](b *Block, lat Lattice[F], tr Transfer[F], in F) F {
	f := lat.Clone(in)
	for _, s := range b.Stmts {
		f = tr(s, f)
	}
	return f
}
