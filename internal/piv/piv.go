// Package piv implements tournament pivoting, the pivot-selection
// strategy of communication-avoiding LU (the TSLU preprocessing step of
// section 2). A panel of b columns is split row-wise into chunks; each
// chunk nominates its b best rows via Gaussian elimination with partial
// pivoting, and a binary reduction tree of further GEPP contests picks
// the final b pivot rows for the whole panel. The reduction operator
// is GEPP on the stacked candidates, with Toledo's recursive LU as the
// sequential algorithm, exactly as the paper does.
package piv

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Candidate is one contestant in the tournament: up to b rows of
// original (unfactored) panel values together with their global row
// indices.
type Candidate struct {
	Vals *mat.Dense // Rows x panelWidth original values of the candidate rows
	IDs  []int      // global row index of each candidate row
}

// Select runs GEPP on vals (a copy is factored; vals is left untouched)
// and returns the candidate holding the top min(b, rows) pivot rows.
// ids[i] is the global row index of vals row i. It is SelectInPlace on
// a clone, for callers that keep their values.
func Select(vals *mat.Dense, ids []int, b int) (Candidate, error) {
	return SelectInPlace(view(vals.Clone()), ids, b, denseRows(vals), new(Scratch))
}

// Scratch holds the reusable buffers of SelectInPlace: the GEPP pivot
// sequence and the local row permutation. The zero value is ready to
// use; the buffers grow to the tallest chunk seen.
type Scratch struct {
	pivots, perm []int
}

// RowSource returns row i of a selection buffer as it was before
// SelectInPlace factored it: row 0 of the returned view holds the
// original values, one per column.
type RowSource func(i int) kernel.View

// SelectInPlace is the tournament's one GEPP-and-pick routine. GEPP runs
// directly on work, which is left holding the factors — its values are
// destroyed — and the winners' original values are read from orig. The
// returned candidate owns its values; ids, work and sc may be reused as
// soon as it returns.
//
// A structurally singular chunk — a duplicated or zero row region whose
// GEPP hits an exactly zero pivot column — can still contribute rows:
// the selection falls back to the pivot-row prefix GEPP established
// before failing and pads it with the remaining candidate rows in
// order, so the tournament always fields min(b, rows) contestants.
// Later combine rounds then outvote the padding with better rows from
// other chunks, which is what lets one singular chunk degrade
// gracefully instead of killing the whole factorization. An error is
// returned only for failures other than exact singularity.
func SelectInPlace(work kernel.View, ids []int, b int, orig RowSource, sc *Scratch) (Candidate, error) {
	r, c := work.Rows, work.Cols
	if len(ids) != r {
		panic(fmt.Sprintf("piv: ids length %d != rows %d", len(ids), r))
	}
	steps := min(r, c)
	pivots := grow(&sc.pivots, steps)
	err := kernel.RecursiveLU(work, pivots)
	established := steps
	if err != nil {
		var se *kernel.SingularError
		if !errors.As(err, &se) {
			return Candidate{}, fmt.Errorf("piv: candidate selection failed: %w", err)
		}
		established = se.K
	}
	// Replay the established swap sequence on the local index
	// permutation; rows beyond the prefix keep their relative order and
	// become the padding.
	p := grow(&sc.perm, r)
	for i := range p {
		p[i] = i
	}
	for k, q := range pivots[:established] {
		p[k], p[q] = p[q], p[k]
	}
	take := min(b, r)
	out := Candidate{Vals: mat.New(take, c), IDs: make([]int, take)}
	for t := 0; t < take; t++ {
		src := p[t]
		out.IDs[t] = ids[src]
		row := orig(src)
		for j := 0; j < c; j++ {
			out.Vals.Data[j*out.Vals.Stride+t] = row.Data[j*row.Stride]
		}
	}
	return out, nil
}

// Combine plays one reduction-tree game: the rows of both candidates
// are stacked into a buffer Combine owns, and GEPP on that buffer picks
// the top min(b, total) of them, originals read from a and b.
func Combine(a, b Candidate, bsize int) (Candidate, error) {
	if a.Vals == nil {
		return b, nil
	}
	if b.Vals == nil {
		return a, nil
	}
	if a.Vals.Cols != b.Vals.Cols {
		panic(fmt.Sprintf("piv: combine width mismatch %d vs %d", a.Vals.Cols, b.Vals.Cols))
	}
	ra, rb := a.Vals.Rows, b.Vals.Rows
	stack := mat.New(ra+rb, a.Vals.Cols)
	stack.Slice(0, ra, 0, stack.Cols).CopyFrom(a.Vals)
	stack.Slice(ra, ra+rb, 0, stack.Cols).CopyFrom(b.Vals)
	ids := make([]int, 0, ra+rb)
	ids = append(ids, a.IDs...)
	ids = append(ids, b.IDs...)
	rowsA, rowsB := denseRows(a.Vals), denseRows(b.Vals)
	orig := func(i int) kernel.View {
		if i < ra {
			return rowsA(i)
		}
		return rowsB(i - ra)
	}
	return SelectInPlace(view(stack), ids, bsize, orig, new(Scratch))
}

func view(d *mat.Dense) kernel.View {
	return kernel.View{Rows: d.Rows, Cols: d.Cols, Stride: d.Stride, Data: d.Data}
}

// denseRows is the RowSource of a matrix nobody factors.
func denseRows(d *mat.Dense) RowSource {
	return func(i int) kernel.View { return view(d).Sub(i, i+1, 0, d.Cols) }
}

// grow returns (*s)[:n], reallocating the backing array when it is
// too short. The contents are stale.
func grow(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	return (*s)[:n]
}

// Swaps converts the winning pivot rows into the sequence of global row
// interchanges that moves pivIDs[t] to row base+t, in order. The
// sequence is applied lazily, block column by block column, by the F
// and U tasks (the paper's "right swap"), and to the left part of L at
// the very end (Algorithm 1, line 43).
func Swaps(pivIDs []int, base int) [][2]int {
	where := make(map[int]int, len(pivIDs)) // row id -> current row
	occ := make(map[int]int, len(pivIDs))   // row -> id currently living there
	loc := func(id int) int {
		if w, ok := where[id]; ok {
			return w
		}
		return id
	}
	at := func(row int) int {
		if id, ok := occ[row]; ok {
			return id
		}
		return row
	}
	var swaps [][2]int
	for t, id := range pivIDs {
		dst := base + t
		src := loc(id)
		if src == dst {
			continue
		}
		swaps = append(swaps, [2]int{dst, src})
		displaced := at(dst)
		occ[src] = displaced
		where[displaced] = src
		occ[dst] = id
		where[id] = dst
	}
	return swaps
}

// ApplySwapsToPerm replays a swap sequence on a row-permutation vector
// (perm[i] = original index of the row now living at i).
func ApplySwapsToPerm(perm []int, swaps [][2]int) {
	for _, s := range swaps {
		perm[s[0]], perm[s[1]] = perm[s[1]], perm[s[0]]
	}
}
