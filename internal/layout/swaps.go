package layout

// swapChunk is how many swaps ApplySwaps resolves at a time: their
// references live in a fixed array on the stack, so applying a swap
// list of any length allocates nothing.
const swapChunk = 64

// swapRef is one resolved swap: the two rows as slices starting at
// their element of the block column's first column, with the column
// strides of the blocks they live in.
type swapRef struct {
	d1, d2 []float64
	s1, s2 int
}

// ApplySwaps applies the row interchanges swaps (pairs of global row
// indices, in order) to block column jb of l and no other — CALU
// applies panel pivoting lazily, one block column at a time — with the
// result of exchanging the two rows of each swap in turn. Each swap's
// two block references are resolved once, and the block column is then
// walked one column at a time with all swaps applied to it before
// moving on: a column's touched rows stay in cache across the list
// (CALU's swaps all have one row inside the same diagonal block),
// where the row-at-a-time order strides through every column once per
// swap. Swaps of one column never read another column, so the
// reordering cannot change a value.
func ApplySwaps(l Layout, jb int, swaps [][2]int) {
	_, _, b := l.Dims()
	_, cols := l.BlockDims(0, jb)
	var refs [swapChunk]swapRef
	for len(swaps) > 0 {
		chunk := swaps[:min(swapChunk, len(swaps))]
		swaps = swaps[len(chunk):]
		nr := 0
		for _, s := range chunk {
			if s[0] == s[1] {
				continue
			}
			i1, o1 := blockIndex(s[0], b)
			i2, o2 := blockIndex(s[1], b)
			v1, v2 := l.Block(i1, jb), l.Block(i2, jb)
			refs[nr] = swapRef{d1: v1.Data[o1:], d2: v2.Data[o2:], s1: v1.Stride, s2: v2.Stride}
			nr++
		}
		for c := 0; c < cols; c++ {
			for i := range refs[:nr] {
				r := &refs[i]
				p1, p2 := &r.d1[c*r.s1], &r.d2[c*r.s2]
				*p1, *p2 = *p2, *p1
			}
		}
	}
}

// ApplyLeftSwaps applies step k's swap list to every block column
// j < k, for every k in order: the deferred left half of CALU's
// pivoting (Algorithm 1, line 43), which brings the finished columns of
// L into the final row order. Block columns are independent, so above
// the parallel cutoff they are dealt round-robin over the grid's
// workers on the fork-join of copy.go — column j carries the lists of
// steps j+1.., so contiguous ranges would leave the last lane idle.
func ApplyLeftSwaps(l Layout, steps [][][2]int) {
	m, n, _ := l.Dims()
	_, nb := l.Blocks()
	cols := min(nb, len(steps)-1)
	parts := min(l.Grid().Workers(), cols)
	fork(parts, m*n, func(p int) {
		for j := p; j < cols; j += parts {
			for _, swaps := range steps[j+1:] {
				ApplySwaps(l, j, swaps)
			}
		}
	})
}
